type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The "mix64" finalizer from SplitMix64. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

(* Sub-stream derivation.  The old scheme seeded subsystem streams
   with [seed lxor tag], which is catastrophically structured: seed
   [tag] collapses the stream to [create 0]'s, and two seeds that
   differ by [tag1 lxor tag2] swap the two subsystems' streams
   wholesale.  Here both inputs pass independently through the
   SplitMix64 finalizer before they meet, so any coincidence between
   two derived streams needs a full 64-bit collision of mixed words —
   no xor relation between adversarially-chosen seeds produces one.
   The salt keeps [stream ~seed ~tag:seed] from mirroring
   [create seed] (mix64 is a bijection, so un-salted equal inputs
   would collide after the final add). *)
let stream_salt = 0x5BF0363516F5D7DBL

let stream ~seed ~tag =
  let mixed_seed = mix64 (Int64.of_int seed) in
  let mixed_tag = mix64 (Int64.logxor (Int64.of_int tag) stream_salt) in
  { state = mix64 (Int64.add mixed_seed mixed_tag) }

let stream_n ~seed ~tag n =
  if n < 0 then invalid_arg "Rng.stream_n: negative index";
  let base = stream ~seed ~tag in
  {
    state =
      mix64
        (Int64.add base.state (Int64.mul golden_gamma (Int64.of_int (n + 1))));
  }

let copy t = { state = t.state }

let encode_state w t = Persist.Codec.W.i64 w t.state
let restore_state r t = t.state <- Persist.Codec.R.i64 r

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max_int62 = (1 lsl 62) - 1 in
  let limit = max_int62 - (max_int62 mod bound) in
  let rec draw () =
    let r = bits t in
    if r >= limit then draw () else r mod bound
  in
  draw ()

let unit_float t =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  r *. 0x1p-53

let float t bound = unit_float t *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
