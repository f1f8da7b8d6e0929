(** Minimal row codec: a row is a list of string fields packed into one
    value with length framing ([<decimal length>:<bytes>] per field).
    Numeric fields go through {!int_field}/{!to_int}. Padding fields
    reproduce realistic TPC-C row and log-entry sizes (the paper measures
    ~875 bytes of log per TPC-C transaction).

    {!field}, {!int_at} and {!set_field} work in place over the framed
    bytes: they parse only the headers up to field [i] and never build
    the field list. A length header is one or more decimal digits; any
    other header raises [Invalid_argument]. *)

val pack : string list -> string

val unpack : string -> string list
(** @raise Invalid_argument on malformed input. *)

val int_field : int -> string

val to_int : string -> int
(** @raise Failure on a non-numeric field. *)

val field : string -> int -> string
(** [field row i] is [List.nth (unpack row) i].
    @raise Invalid_argument if [row] has no field [i] or a header up to
    it is malformed. *)

val int_at : string -> int -> int
(** [int_at row i] is [to_int (field row i)], read without copying the
    field. @raise Invalid_argument as {!field}; @raise Failure as
    {!to_int}. *)

val set_field : string -> int -> string -> string
(** [set_field row i v] is [row] with field [i] replaced by [v], spliced
    into one new string. @raise Invalid_argument as {!field}. *)

val pad : int -> string
(** A filler string of the given length (deterministic content). *)
