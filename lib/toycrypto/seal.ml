type sealed = {
  recipient : int;
  wrapped_key : int list;
  iv : int64;
  ciphertext : string;
  mac : int64;
}

(* The 128-bit session key is carried as ten 14-bit chunks, five per
   64-bit half (the fifth holds the half's top 8 bits); each chunk is
   below 2^14, so below any RSA modulus {!Rsa.generate} produces. *)
let chunk_bits = 14

let key_to_chunks hi lo =
  let word x shift = Int64.to_int (Int64.shift_right_logical x shift) land ((1 lsl chunk_bits) - 1) in
  let rec take x shift acc =
    if shift >= 64 then List.rev acc else take x (shift + chunk_bits) (word x shift :: acc)
  in
  take hi 0 [] @ take lo 0 []

let chunks_to_key chunks =
  let rebuild chunks =
    List.fold_right
      (fun c acc -> Int64.logor (Int64.shift_left acc chunk_bits) (Int64.of_int c))
      chunks 0L
  in
  let rec split i acc = function
    | rest when i = 0 -> (List.rev acc, rest)
    | c :: rest -> split (i - 1) (c :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let per_half = (64 + chunk_bits - 1) / chunk_bits in
  let first, second = split per_half [] chunks in
  (rebuild first, rebuild second)

let mac_key hi lo = (hi, lo)

let mac_input ~iv ~ciphertext =
  let b = Bytes.create (8 + String.length ciphertext) in
  Bytes.set_int64_be b 0 iv;
  Bytes.blit_string ciphertext 0 b 8 (String.length ciphertext);
  b

let seal rng pk payload =
  let hi = Sim.Rng.int64 rng and lo = Sim.Rng.int64 rng in
  let key = Xtea.key_of_int64s hi lo in
  let iv = Sim.Rng.int64 rng in
  (* The cipher's output buffer is fresh and never written again. *)
  let ciphertext = Bytes.unsafe_to_string (Xtea.encrypt_cbc key ~iv payload) in
  let mac = Hash.siphash ~key:(mac_key hi lo) (mac_input ~iv ~ciphertext) in
  {
    recipient = Rsa.key_id pk;
    wrapped_key = List.map (Rsa.encrypt pk) (key_to_chunks hi lo);
    iv;
    ciphertext;
    mac;
  }

let unseal sk sealed =
  let chunks = List.map (Rsa.decrypt sk) sealed.wrapped_key in
  let hi, lo = chunks_to_key chunks in
  let expected =
    Hash.siphash ~key:(mac_key hi lo)
      (mac_input ~iv:sealed.iv ~ciphertext:sealed.ciphertext)
  in
  if expected <> sealed.mac then None
  else
    (* [decrypt_cbc] only reads the ciphertext. *)
    Xtea.decrypt_cbc (Xtea.key_of_int64s hi lo) ~iv:sealed.iv
      (Bytes.unsafe_of_string sealed.ciphertext)

let recipient_id sealed = sealed.recipient

let flip_bit sealed =
  if String.length sealed.ciphertext = 0 then sealed
  else begin
    let b = Bytes.of_string sealed.ciphertext in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    { sealed with ciphertext = Bytes.to_string b }
  end

let size_bytes sealed =
  (* recipient id + wrapped key chunks (4 bytes each) + iv + mac *)
  4 + (4 * List.length sealed.wrapped_key) + 8 + String.length sealed.ciphertext + 8

(* A forged envelope: structurally valid, addressed to [recipient],
   but with a random wrapped key, ciphertext and MAC.  The MAC check in
   [unseal] rejects it (the forger does not know the session key), so
   this is the adversary's best effort without the recipient's secret. *)
let forge rng ~recipient ~len =
  let per_half = (64 + chunk_bits - 1) / chunk_bits in
  {
    recipient;
    wrapped_key =
      List.init (2 * per_half) (fun _ -> Sim.Rng.int rng (1 lsl chunk_bits));
    iv = Sim.Rng.int64 rng;
    ciphertext = String.init (max 1 len) (fun _ -> Char.chr (Sim.Rng.int rng 256));
    mac = Sim.Rng.int64 rng;
  }

(* Value codec (Wire-style): adversary replay memories hold captured
   envelopes, which therefore must ride in world snapshots. *)
let encode_bin w sealed =
  let open Persist.Codec.W in
  int w sealed.recipient;
  list int w sealed.wrapped_key;
  i64 w sealed.iv;
  str w sealed.ciphertext;
  i64 w sealed.mac

let decode_bin r =
  let open Persist.Codec.R in
  let recipient = int r in
  let wrapped_key = list int r in
  let iv = i64 r in
  let ciphertext = str r in
  let mac = i64 r in
  { recipient; wrapped_key; iv; ciphertext; mac }
