(* xoshiro256** by Blackman & Vigna (public domain reference
   implementation), seeded through splitmix64 as the authors recommend.

   The four state words and the last step's output live in one [Bytes]
   (native byte order; the bytes never leave this module), read and
   written with the unboxed 64-bit primitives. Mutable [int64] record
   fields would box every new state word on every draw. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Byte offsets of the state words s0..s3 and of the step output. *)
let s0 = 0
let s1 = 8
let s2 = 16
let s3 = 24
let out = 32

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let t = Bytes.make 40 '\x00' in
  List.iter (fun off -> set64 t off (splitmix64 state)) [ s0; s1; s2; s3 ];
  t

(* One xoshiro256** step: advances the state and leaves the output at
   [out]. Returning unit rather than the [int64] keeps the result
   unboxed for callers that only want an [int]. *)
let step t =
  let open Int64 in
  let x0 = get64 t s0 and x1 = get64 t s1 and x2 = get64 t s2 and x3 = get64 t s3 in
  let m = mul x1 5L in
  set64 t out (mul (logor (shift_left m 7) (shift_right_logical m 57)) 9L);
  let x2 = logxor x2 x0 in
  let x3 = logxor x3 x1 in
  set64 t s1 (logxor x1 x2);
  set64 t s0 (logxor x0 x3);
  set64 t s2 (logxor x2 (shift_left x1 17));
  set64 t s3 (logor (shift_left x3 45) (shift_right_logical x3 19))

let int64 t =
  step t;
  get64 t out

let split t = create (int64 t)

(* Smallest all-ones mask covering [n - 1] (at least 1). *)
let rec mask_for n m = if m >= n - 1 then m else mask_for n ((m lsl 1) lor 1)

(* Masked rejection sampling keeps the distribution exactly uniform. *)
let rec draw t n mask =
  step t;
  let v = Int64.to_int (get64 t out) land mask in
  if v < n then v else draw t n mask

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t n (mask_for n 1)

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits give a uniform double in [0,1). *)
  step t;
  let bits = Int64.to_int (Int64.shift_right_logical (get64 t out) 11) in
  x *. (float_of_int bits /. 9007199254740992.0)

let bool t =
  step t;
  Int64.logand (get64 t out) 1L = 1L

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
