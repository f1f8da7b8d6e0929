type component = I of int | S of string

let flip_sign x = x lxor min_int

(* Tag bytes keep decode unambiguous and keep I/S ordering stable. *)
let tag_int = '\x01'
let tag_string = '\x02'

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Big-endian store of the 63-bit [x] as 8 bytes, zero-extended: the top
   bit is always 0. [Int64.of_int] sign-extends, so mask before storing —
   a sign-extended store still round-trips and keeps order but changes
   every byte of every key. *)
let put_int b pos x =
  let v = Int64.logand (Int64.of_int (flip_sign x)) Int64.max_int in
  set64 b pos (if Sys.big_endian then v else bswap64 v)

let count_nuls s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    if String.unsafe_get s i = '\x00' then incr n
  done;
  !n

let rec encoded_size acc = function
  | [] -> acc
  | I _ :: rest -> encoded_size (acc + 9) rest
  | S s :: rest -> encoded_size (acc + String.length s + count_nuls s + 2) rest

(* Strings escape [\x00] as [\x00\xff] and end with a [\x00]. *)
let put_string b pos s =
  let pos = ref pos in
  for i = 0 to String.length s - 1 do
    let ch = String.unsafe_get s i in
    Bytes.unsafe_set b !pos ch;
    if ch = '\x00' then begin
      Bytes.unsafe_set b (!pos + 1) '\xff';
      pos := !pos + 2
    end
    else incr pos
  done;
  Bytes.unsafe_set b !pos '\x00';
  !pos + 1

let rec put_components b pos = function
  | [] -> ()
  | I x :: rest ->
      Bytes.unsafe_set b pos tag_int;
      put_int b (pos + 1) x;
      put_components b (pos + 9) rest
  | S s :: rest ->
      Bytes.unsafe_set b pos tag_string;
      put_components b (put_string b (pos + 1) s) rest

(* Written into a buffer of exactly the encoded size: no growth, no copy. *)
let encode components =
  let b = Bytes.create (encoded_size 0 components) in
  put_components b 0 components;
  Bytes.unsafe_to_string b

let decode s =
  let len = String.length s in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else if s.[pos] = tag_int then begin
      if pos + 9 > len then invalid_arg "Keycodec.decode: truncated int";
      let x = ref 0 in
      for i = 0 to 7 do
        x := (!x lsl 8) lor Char.code s.[pos + 1 + i]
      done;
      go (pos + 9) (I (flip_sign !x) :: acc)
    end
    else if s.[pos] = tag_string then begin
      let buf = Buffer.create 16 in
      let rec scan i =
        if i >= len then invalid_arg "Keycodec.decode: unterminated string";
        match s.[i] with
        | '\x00' ->
            if i + 1 < len && s.[i + 1] = '\xff' then begin
              Buffer.add_char buf '\x00';
              scan (i + 2)
            end
            else i + 1
        | c ->
            Buffer.add_char buf c;
            scan (i + 1)
      in
      let next = scan (pos + 1) in
      go next (S (Buffer.contents buf) :: acc)
    end
    else invalid_arg "Keycodec.decode: bad tag byte"
  in
  go 0 []

let next_prefix p =
  let b = Bytes.of_string p in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then bump (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

let compare_component a b =
  match (a, b) with
  | I x, I y -> compare x y
  | S x, S y -> compare x y
  | I _, S _ -> -1
  | S _, I _ -> 1

let rec compare_components a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare_component x y in
      if c <> 0 then c else compare_components xs ys
