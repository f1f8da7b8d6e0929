(* Framing: a row is a run of fields, each a header of decimal digits
   giving the field's length, a ':' and the field's bytes. [put_header]
   is the one writer and [header] the one reader of that header; field
   access and update work in place over the framed bytes instead of
   materialising the field list. *)

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let rec put_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_digits b (i - 1) (n / 10)

(* Write the header of a field of length [n] at [pos]; returns the offset
   of the field's first byte. *)
let put_header b pos n =
  let d = digits n in
  put_digits b (pos + d - 1) n;
  Bytes.unsafe_set b (pos + d) ':';
  pos + d + 1

let framed_size f = digits (String.length f) + 1 + String.length f

let rec packed_size acc = function
  | [] -> acc
  | f :: rest -> packed_size (acc + framed_size f) rest

let rec put_fields b pos = function
  | [] -> ()
  | f :: rest ->
      let start = put_header b pos (String.length f) in
      Bytes.blit_string f 0 b start (String.length f);
      put_fields b (start + String.length f) rest

let pack fields =
  let b = Bytes.create (packed_size 0 fields) in
  put_fields b 0 fields;
  Bytes.unsafe_to_string b

(* Parse the header at [pos]: one or more decimal digits, then ':'.
   Returns the offset of the field's first byte and its length. *)
let rec parse_header s pos i n =
  if i >= String.length s then invalid_arg "Row: missing length separator"
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        let n = (n * 10) + (Char.code c - 48) in
        if n > String.length s then invalid_arg "Row: truncated field";
        parse_header s pos (i + 1) n
    | ':' when i > pos ->
        if i + 1 + n > String.length s then invalid_arg "Row: truncated field";
        (i + 1, n)
    | _ -> invalid_arg "Row: bad length"

let header s pos = parse_header s pos pos 0

let unpack s =
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let start, n = header s pos in
      go (start + n) (String.sub s start n :: acc)
  in
  go 0 []

(* Offset of field [i]'s header. *)
let rec seek s pos i =
  if i < 0 || pos >= String.length s then invalid_arg "Row: no such field"
  else if i = 0 then pos
  else
    let start, n = header s pos in
    seek s (start + n) (i - 1)

let int_field = string_of_int

let to_int s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Row.to_int: %S is not numeric" s)

let field row i =
  let start, n = header row (seek row 0 i) in
  String.sub row start n

(* Value of the digits in [s.[i..stop)], or -1 at the first non-digit. *)
let rec decimal s i stop acc =
  if i >= stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> decimal s (i + 1) stop ((acc * 10) + (Char.code c - 48))
    | _ -> -1

(* Plain decimals of up to 18 digits cannot overflow and are read in
   place; anything else takes {!to_int}'s general path. *)
let int_at row i =
  let start, n = header row (seek row 0 i) in
  let neg = n > 0 && String.unsafe_get row start = '-' in
  let first = if neg then start + 1 else start in
  let stop = start + n in
  let v = if stop = first || stop - first > 18 then -1 else decimal row first stop 0 in
  if v < 0 then to_int (String.sub row start n) else if neg then -v else v

let set_field row i v =
  let h = seek row 0 i in
  let start, n = header row h in
  let tail = start + n in
  let vlen = String.length v in
  let b = Bytes.create (h + framed_size v + String.length row - tail) in
  Bytes.blit_string row 0 b 0 h;
  let vstart = put_header b h vlen in
  Bytes.blit_string v 0 b vstart vlen;
  Bytes.blit_string row tail b (vstart + vlen) (String.length row - tail);
  Bytes.unsafe_to_string b

let pad n = String.make n 'x'
