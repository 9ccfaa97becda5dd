(* [schedule] holds the 32 rounds' key words, computed once per key:
   entry [2r] is the word added in round r's first half-round
   ([sum + key[sum land 3]] before [sum] steps) and entry [2r + 1] the
   word of its second ([sum + key[(sum lsr 11) land 3]] after). *)
type key = { k0 : int; k1 : int; k2 : int; k3 : int; schedule : int array }

let mask32 = 0xFFFFFFFF
let delta = 0x9E3779B9
let rounds = 32

let key_of_words a b c d =
  let k = [| a land mask32; b land mask32; c land mask32; d land mask32 |] in
  let schedule = Array.make (2 * rounds) 0 in
  let sum = ref 0 in
  for r = 0 to rounds - 1 do
    schedule.(2 * r) <- (!sum + k.(!sum land 3)) land mask32;
    sum := (!sum + delta) land mask32;
    schedule.((2 * r) + 1) <- (!sum + k.((!sum lsr 11) land 3)) land mask32
  done;
  { k0 = k.(0); k1 = k.(1); k2 = k.(2); k3 = k.(3); schedule }

let key_of_int64s hi lo =
  let w x shift = Int64.to_int (Int64.shift_right_logical x shift) land mask32 in
  key_of_words (w hi 32) (w hi 0) (w lo 32) (w lo 0)

let random_key rng = key_of_int64s (Sim.Rng.int64 rng) (Sim.Rng.int64 rng)

let key_words { k0; k1; k2; k3; _ } = (k0, k1, k2, k3)

(* All arithmetic is on 32-bit words held in native ints; a block is
   its two big-endian 32-bit halves, read and written in place. *)
let mix v = (((v lsl 4) lxor (v lsr 5)) + v) land mask32

let get32 b off = Int32.to_int (Bytes.get_int32_be b off) land mask32
let set32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

(* Encrypt (decrypt) the block at [off] of [b] in place.  Every block
   operation below, raw or CBC, runs through these two. *)
let encipher k b off =
  let s = k.schedule in
  let v0 = ref (get32 b off) and v1 = ref (get32 b (off + 4)) in
  for r = 0 to rounds - 1 do
    v0 := (!v0 + (mix !v1 lxor Array.unsafe_get s (2 * r))) land mask32;
    v1 := (!v1 + (mix !v0 lxor Array.unsafe_get s ((2 * r) + 1))) land mask32
  done;
  set32 b off !v0;
  set32 b (off + 4) !v1

let decipher k b off =
  let s = k.schedule in
  let v0 = ref (get32 b off) and v1 = ref (get32 b (off + 4)) in
  for r = rounds - 1 downto 0 do
    v1 := (!v1 - (mix !v0 lxor Array.unsafe_get s ((2 * r) + 1))) land mask32;
    v0 := (!v0 - (mix !v1 lxor Array.unsafe_get s (2 * r))) land mask32
  done;
  set32 b off !v0;
  set32 b (off + 4) !v1

let on_block f k x =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 x;
  f k b 0;
  Bytes.get_int64_be b 0

let encrypt_block k x = on_block encipher k x
let decrypt_block k x = on_block decipher k x

let iv_hi iv = Int64.to_int (Int64.shift_right_logical iv 32) land mask32
let iv_lo iv = Int64.to_int iv land mask32

(* The padded copy is the output: each block is xored with the
   previous ciphertext block (the IV for the first) and enciphered in
   place, so encryption allocates nothing else. *)
let encrypt_cbc k ~iv plain =
  let len = Bytes.length plain in
  let pad = 8 - (len mod 8) in
  let out = Bytes.make (len + pad) (Char.chr pad) in
  Bytes.blit plain 0 out 0 len;
  for off = 0 to ((len + pad) / 8) - 1 do
    let off = off * 8 in
    let p0 = if off = 0 then iv_hi iv else get32 out (off - 8) in
    let p1 = if off = 0 then iv_lo iv else get32 out (off - 4) in
    set32 out off (get32 out off lxor p0);
    set32 out (off + 4) (get32 out (off + 4) lxor p1);
    encipher k out off
  done;
  out

let decrypt_cbc k ~iv cipher =
  let len = Bytes.length cipher in
  if len = 0 || len mod 8 <> 0 then None
  else begin
    let out = Bytes.copy cipher in
    for off = 0 to (len / 8) - 1 do
      let off = off * 8 in
      let p0 = if off = 0 then iv_hi iv else get32 cipher (off - 8) in
      let p1 = if off = 0 then iv_lo iv else get32 cipher (off - 4) in
      decipher k out off;
      set32 out off (get32 out off lxor p0);
      set32 out (off + 4) (get32 out (off + 4) lxor p1)
    done;
    let pad = Char.code (Bytes.get out (len - 1)) in
    if pad < 1 || pad > 8 || pad > len then None
    else begin
      let valid = ref true in
      for i = len - pad to len - 1 do
        if Char.code (Bytes.get out i) <> pad then valid := false
      done;
      if !valid then Some (Bytes.sub out 0 (len - pad)) else None
    end
  end
