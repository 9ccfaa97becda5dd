type key = int64 * int64

let rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

(* One function body, and the state refs are never captured by a
   closure: ocamlopt then keeps v0..v3 in registers as unboxed int64s.
   (A local [sipround] closure over the refs would box a fresh value on
   every update, about 14 words per byte hashed.)  The message is
   processed as words 0..n-1 (full 8-byte blocks), word n (the tail
   bytes with the length in the top byte) and one finalisation step;
   every step runs the same round body, 2 times per word (SipHash-2-)
   and 4 times to finalise (-4). *)
let siphash ~key:(k0, k1) msg =
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let len = Bytes.length msg in
  let n = len / 8 in
  let tail = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for i = 0 to (len land 7) - 1 do
    let byte = Int64.of_int (Char.code (Bytes.unsafe_get msg ((n * 8) + i))) in
    tail := Int64.logor !tail (Int64.shift_left byte (8 * i))
  done;
  for w = 0 to n + 1 do
    let final = w > n in
    (* At the finalisation step m = 0, so the closing xor into v0 is a
       no-op, as the specification has it. *)
    let m = if w < n then Bytes.get_int64_le msg (8 * w) else if final then 0L else !tail in
    if final then v2 := Int64.logxor !v2 0xffL else v3 := Int64.logxor !v3 m;
    for _ = 1 to if final then 4 else 2 do
      v0 := Int64.add !v0 !v1;
      v1 := rotl !v1 13;
      v1 := Int64.logxor !v1 !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := rotl !v3 16;
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := rotl !v3 21;
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := rotl !v1 17;
      v1 := Int64.logxor !v1 !v2;
      v2 := rotl !v2 32
    done;
    v0 := Int64.logxor !v0 m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

(* [siphash] only reads its buffer, so the string is not copied. *)
let siphash_string ~key s = siphash ~key (Bytes.unsafe_of_string s)

let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h
