(* Tests for the cryptographic substrate. *)

let rng () = Sim.Rng.create 2024

(* ------------------------------------------------------------------ *)
(* SipHash-2-4 — checked against the reference vectors of Aumasson &
   Bernstein (key 000102...0f, inputs 00, 0001, ...).                  *)
(* ------------------------------------------------------------------ *)

let reference_key : Toycrypto.Hash.key = (0x0706050403020100L, 0x0F0E0D0C0B0A0908L)

let input_bytes n = Bytes.init n (fun i -> Char.chr i)

let test_siphash_vectors () =
  let cases =
    [
      (0, 0x726fdb47dd0e0e31L);
      (1, 0x74f839c593dc67fdL);
      (2, 0x0d6c8009d9a94f5aL);
      (3, 0x85676696d7fb7e2dL);
      (7, 0xab0200f58b01d137L);
      (8, 0x93f5f5799a932462L);
      (15, 0xa129ca6149be45e5L);
      (16, 0x3f2acc7f57c29bdbL);
      (63, 0x958a324ceb064572L);
    ]
  in
  List.iter
    (fun (len, expected) ->
      Alcotest.(check int64)
        (Printf.sprintf "len %d" len)
        expected
        (Toycrypto.Hash.siphash ~key:reference_key (input_bytes len)))
    cases

let test_siphash_key_sensitivity () =
  let m = Bytes.of_string "attack at dawn" in
  let h1 = Toycrypto.Hash.siphash ~key:(1L, 2L) m in
  let h2 = Toycrypto.Hash.siphash ~key:(1L, 3L) m in
  Alcotest.(check bool) "different keys differ" true (h1 <> h2)

let test_siphash_message_sensitivity () =
  let h1 = Toycrypto.Hash.siphash_string ~key:(1L, 2L) "hello world" in
  let h2 = Toycrypto.Hash.siphash_string ~key:(1L, 2L) "hello worle" in
  Alcotest.(check bool) "one byte flips hash" true (h1 <> h2)

(* The closure-based SipHash the library used before its state was
   kept unboxed: a local [sipround] over four [int64 ref]s, bytes
   loaded one at a time.  The library must agree with it on every key
   and message. *)
let siphash_reference ~key:(k0, k1) msg =
  let rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b)) in
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let sipround () =
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
  in
  let byte i = Int64.of_int (Char.code (Bytes.get msg i)) in
  let len = Bytes.length msg in
  let full_blocks = len / 8 in
  for i = 0 to full_blocks - 1 do
    let m = ref 0L in
    for j = 7 downto 0 do
      m := Int64.logor (Int64.shift_left !m 8) (byte ((i * 8) + j))
    done;
    v3 := Int64.logxor !v3 !m;
    sipround ();
    sipround ();
    v0 := Int64.logxor !v0 !m
  done;
  let b = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for i = 0 to (len land 7) - 1 do
    b := Int64.logor !b (Int64.shift_left (byte ((full_blocks * 8) + i)) (8 * i))
  done;
  v3 := Int64.logxor !v3 !b;
  sipround ();
  sipround ();
  v0 := Int64.logxor !v0 !b;
  v2 := Int64.logxor !v2 0xffL;
  for _ = 1 to 4 do
    sipround ()
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let byte_string_gen max_len =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 max_len))

let siphash_matches_reference =
  QCheck.Test.make ~name:"siphash equals the closure-based reference" ~count:500
    (QCheck.make ~print:(fun (_, _, s) -> String.escaped s)
       QCheck.Gen.(triple ui64 ui64 (byte_string_gen 300)))
    (fun (k0, k1, s) ->
      let msg = Bytes.of_string s in
      Toycrypto.Hash.siphash ~key:(k0, k1) msg = siphash_reference ~key:(k0, k1) msg
      && Toycrypto.Hash.siphash_string ~key:(k0, k1) s = siphash_reference ~key:(k0, k1) msg)

let minor_words_of n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. before

(* The v0..v3 state stays unboxed: hashing 1 KiB allocates only the
   boxed result, not words per byte. *)
let test_siphash_allocates_nothing_per_byte () =
  let msg = Bytes.init 1024 (fun i -> Char.chr (i land 0xff)) in
  let words = minor_words_of 1000 (fun () -> Toycrypto.Hash.siphash ~key:(1L, 2L) msg) in
  if words > 8. *. 1000. then
    Alcotest.failf "siphash of 1 KiB: %.1f words per call (at most 8)" (words /. 1000.)

(* ------------------------------------------------------------------ *)
(* XTEA                                                                *)
(* ------------------------------------------------------------------ *)

let test_xtea_roundtrip_block () =
  let k = Toycrypto.Xtea.key_of_words 0x00010203 0x04050607 0x08090a0b 0x0c0d0e0f in
  let blocks = [ 0L; 1L; 0x4142434445464748L; Int64.minus_one; 0x123456789ABCDEFL ] in
  List.iter
    (fun b ->
      let c = Toycrypto.Xtea.encrypt_block k b in
      Alcotest.(check bool) "cipher differs" true (c <> b);
      Alcotest.(check int64) "roundtrip" b (Toycrypto.Xtea.decrypt_block k c))
    blocks

(* Known answer: the 32-round XTEA of "ABCDEFGH" under key 00..0f. *)
let test_xtea_known_answer () =
  let k = Toycrypto.Xtea.key_of_words 0x00010203 0x04050607 0x08090a0b 0x0c0d0e0f in
  Alcotest.(check int64) "encrypt" 0x497df3d072612cb5L
    (Toycrypto.Xtea.encrypt_block k 0x4142434445464748L);
  Alcotest.(check int64) "decrypt" 0x4142434445464748L
    (Toycrypto.Xtea.decrypt_block k 0x497df3d072612cb5L)

(* The cipher as the library had it before CBC ran on native 32-bit
   halves with a precomputed key schedule: every block an [int64],
   round keys looked up per round, bytes moved one at a time. *)
module Xtea_reference = struct
  let mask32 = 0xFFFFFFFF
  let delta = 0x9E3779B9
  let mix v = (((v lsl 4) lxor (v lsr 5)) + v) land mask32

  let word k i =
    let a, b, c, d = Toycrypto.Xtea.key_words k in
    match i land 3 with 0 -> a | 1 -> b | 2 -> c | _ -> d

  let split x =
    (Int64.to_int (Int64.shift_right_logical x 32) land mask32, Int64.to_int x land mask32)

  let join v0 v1 =
    Int64.logor (Int64.shift_left (Int64.of_int v0) 32) (Int64.of_int v1)

  let encrypt_block k x =
    let v0, v1 = split x in
    let v0 = ref v0 and v1 = ref v1 and sum = ref 0 in
    for _ = 1 to 32 do
      v0 := (!v0 + (mix !v1 lxor ((!sum + word k !sum) land mask32))) land mask32;
      sum := (!sum + delta) land mask32;
      v1 := (!v1 + (mix !v0 lxor ((!sum + word k (!sum lsr 11)) land mask32))) land mask32
    done;
    join !v0 !v1

  let decrypt_block k x =
    let v0, v1 = split x in
    let v0 = ref v0 and v1 = ref v1 and sum = ref ((delta * 32) land mask32) in
    for _ = 1 to 32 do
      v1 := (!v1 - (mix !v0 lxor ((!sum + word k (!sum lsr 11)) land mask32))) land mask32;
      sum := (!sum - delta) land mask32;
      v0 := (!v0 - (mix !v1 lxor ((!sum + word k !sum) land mask32))) land mask32
    done;
    join !v0 !v1

  let get b off =
    let acc = ref 0L in
    for i = 0 to 7 do
      acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code (Bytes.get b (off + i))))
    done;
    !acc

  let set b off v =
    for i = 0 to 7 do
      Bytes.set b (off + i)
        (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))
    done

  let encrypt_cbc k ~iv plain =
    let len = Bytes.length plain in
    let pad = 8 - (len mod 8) in
    let padded = Bytes.make (len + pad) (Char.chr pad) in
    Bytes.blit plain 0 padded 0 len;
    let out = Bytes.create (len + pad) in
    let prev = ref iv in
    for i = 0 to ((len + pad) / 8) - 1 do
      let c = encrypt_block k (Int64.logxor (get padded (i * 8)) !prev) in
      set out (i * 8) c;
      prev := c
    done;
    out

  let decrypt_cbc k ~iv cipher =
    let len = Bytes.length cipher in
    if len = 0 || len mod 8 <> 0 then None
    else begin
      let out = Bytes.create len in
      let prev = ref iv in
      for i = 0 to (len / 8) - 1 do
        let c = get cipher (i * 8) in
        set out (i * 8) (Int64.logxor (decrypt_block k c) !prev);
        prev := c
      done;
      let pad = Char.code (Bytes.get out (len - 1)) in
      if pad < 1 || pad > 8 || pad > len then None
      else if
        List.for_all
          (fun i -> Char.code (Bytes.get out i) = pad)
          (List.init pad (fun j -> len - 1 - j))
      then Some (Bytes.sub out 0 (len - pad))
      else None
    end
end

let xtea_case_gen =
  QCheck.Gen.(
    quad (quad ui32 ui32 ui32 ui32) ui64 (byte_string_gen 200) (pair ui32 small_nat))

let xtea_key (a, b, c, d) =
  Toycrypto.Xtea.key_of_words (Int32.to_int a) (Int32.to_int b) (Int32.to_int c) (Int32.to_int d)

let xtea_matches_reference =
  QCheck.Test.make ~name:"xtea block and cbc equal the int64 reference" ~count:300
    (QCheck.make ~print:(fun (_, _, s, _) -> String.escaped s) xtea_case_gen)
    (fun (words, iv, s, (other, cut)) ->
      let k = xtea_key words in
      let plain = Bytes.of_string s in
      let cipher = Toycrypto.Xtea.encrypt_cbc k ~iv plain in
      let same_decrypt k c =
        Toycrypto.Xtea.decrypt_cbc k ~iv c = Xtea_reference.decrypt_cbc k ~iv c
      in
      (* A key differing in one word, and the ciphertext cut short at
         an arbitrary byte (aligned or not). *)
      let (a, b, c, _) = words in
      let wrong = xtea_key (a, b, c, other) in
      let truncated = Bytes.sub cipher 0 (cut mod Bytes.length cipher) in
      cipher = Xtea_reference.encrypt_cbc k ~iv plain
      && Toycrypto.Xtea.encrypt_block k iv = Xtea_reference.encrypt_block k iv
      && Toycrypto.Xtea.decrypt_block k iv = Xtea_reference.decrypt_block k iv
      && same_decrypt k cipher && same_decrypt wrong cipher && same_decrypt k truncated
      && Toycrypto.Xtea.decrypt_cbc k ~iv cipher = Some plain)

(* CBC on 1 KiB allocates its output (1032 bytes: 130 words with the
   header), at most the same again for a padded copy, and O(1) besides;
   no per-block [int64] boxes. *)
let test_xtea_cbc_allocation () =
  let k = Toycrypto.Xtea.key_of_words 1 2 3 4 in
  let plain = Bytes.make 1024 'p' in
  let per_call =
    minor_words_of 100 (fun () -> Toycrypto.Xtea.encrypt_cbc k ~iv:42L plain) /. 100.
  in
  let bound = (2. *. 130.) +. 16. in
  if per_call > bound then
    Alcotest.failf "encrypt_cbc of 1 KiB: %.1f words per call (at most %.0f)" per_call bound

let test_xtea_key_matters () =
  let k1 = Toycrypto.Xtea.key_of_words 1 2 3 4 in
  let k2 = Toycrypto.Xtea.key_of_words 1 2 3 5 in
  let b = 0xDEADBEEFL in
  Alcotest.(check bool) "different key, different cipher" true
    (Toycrypto.Xtea.encrypt_block k1 b <> Toycrypto.Xtea.encrypt_block k2 b)

let test_xtea_cbc_roundtrip () =
  let r = rng () in
  let k = Toycrypto.Xtea.random_key r in
  let cases =
    [ ""; "x"; "12345678"; "123456789"; String.make 1000 'z'; "e-penny payment" ]
  in
  List.iter
    (fun plain ->
      let iv = Sim.Rng.int64 r in
      let cipher = Toycrypto.Xtea.encrypt_cbc k ~iv (Bytes.of_string plain) in
      Alcotest.(check bool) "length multiple of 8" true
        (Bytes.length cipher mod 8 = 0);
      Alcotest.(check bool) "padded strictly longer" true
        (Bytes.length cipher > String.length plain);
      match Toycrypto.Xtea.decrypt_cbc k ~iv cipher with
      | Some out -> Alcotest.(check string) "roundtrip" plain (Bytes.to_string out)
      | None -> Alcotest.fail "decryption failed")
    cases

let test_xtea_cbc_wrong_key () =
  let r = rng () in
  let k1 = Toycrypto.Xtea.random_key r in
  let k2 = Toycrypto.Xtea.random_key r in
  let iv = Sim.Rng.int64 r in
  let cipher = Toycrypto.Xtea.encrypt_cbc k1 ~iv (Bytes.of_string "secret") in
  (* Wrong key almost surely breaks padding; at minimum it must not
     yield the plaintext. *)
  (match Toycrypto.Xtea.decrypt_cbc k2 ~iv cipher with
  | None -> ()
  | Some out ->
      Alcotest.(check bool) "wrong key yields garbage" true
        (Bytes.to_string out <> "secret"));
  (* Truncated input is rejected outright. *)
  Alcotest.(check bool) "truncation rejected" true
    (Toycrypto.Xtea.decrypt_cbc k1 ~iv (Bytes.sub cipher 0 4) = None)

let test_xtea_cbc_blocks_chained () =
  (* Two identical plaintext blocks must encrypt differently under CBC. *)
  let r = rng () in
  let k = Toycrypto.Xtea.random_key r in
  let plain = Bytes.of_string (String.make 16 'A') in
  let cipher = Toycrypto.Xtea.encrypt_cbc k ~iv:42L plain in
  Alcotest.(check bool) "block 0 <> block 1" true
    (Bytes.sub cipher 0 8 <> Bytes.sub cipher 8 8)

(* ------------------------------------------------------------------ *)
(* RSA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mod_pow () =
  Alcotest.(check int) "3^4 mod 5" 1 (Toycrypto.Rsa.mod_pow 3 4 5);
  Alcotest.(check int) "2^10 mod 1000" 24 (Toycrypto.Rsa.mod_pow 2 10 1000);
  Alcotest.(check int) "fermat" 1 (Toycrypto.Rsa.mod_pow 2 1_000_002 1_000_003)

let test_primality () =
  let r = rng () in
  let primes = [ 2; 3; 5; 7; 104729; 1_000_003; 32749 ] in
  let composites = [ 1; 4; 9; 104730; 1_000_001; 561; 41041 (* Carmichael *) ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) (string_of_int p) true (Toycrypto.Rsa.is_probable_prime r p))
    primes;
  List.iter
    (fun c ->
      Alcotest.(check bool) (string_of_int c) false
        (Toycrypto.Rsa.is_probable_prime r c))
    composites

let test_rsa_roundtrip () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let messages = [ 0; 1; 2; 12345; pk.Toycrypto.Rsa.n - 1 ] in
  List.iter
    (fun m ->
      Alcotest.(check int) (string_of_int m) m
        (Toycrypto.Rsa.decrypt sk (Toycrypto.Rsa.encrypt pk m)))
    messages

let test_rsa_out_of_range () =
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  Alcotest.(check bool) "raises on m >= n" true
    (try
       ignore (Toycrypto.Rsa.encrypt pk pk.Toycrypto.Rsa.n);
       false
     with Invalid_argument _ -> true)

let test_rsa_distinct_keys () =
  let r = rng () in
  let pk1, _ = Toycrypto.Rsa.generate r in
  let pk2, sk2 = Toycrypto.Rsa.generate r in
  Alcotest.(check bool) "distinct moduli" true
    (Toycrypto.Rsa.key_id pk1 <> Toycrypto.Rsa.key_id pk2);
  (* Decrypting with the wrong key does not invert. *)
  let c = Toycrypto.Rsa.encrypt pk1 4242 in
  Alcotest.(check bool) "wrong key fails" true (Toycrypto.Rsa.decrypt sk2 c <> 4242)

let rsa_roundtrip_prop =
  QCheck.Test.make ~name:"rsa roundtrip for random messages" ~count:100
    QCheck.(pair small_nat (int_bound 10_000))
    (fun (seed, m) ->
      let r = Sim.Rng.create seed in
      let pk, sk = Toycrypto.Rsa.generate r in
      let m = m mod (pk.Toycrypto.Rsa.n - 1) in
      Toycrypto.Rsa.decrypt sk (Toycrypto.Rsa.encrypt pk m) = m)

(* ------------------------------------------------------------------ *)
(* Seal / unseal (NCR / DCR)                                           *)
(* ------------------------------------------------------------------ *)

let test_seal_roundtrip () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let payloads = [ ""; "x"; "buy 500 e-pennies nonce 42"; String.make 500 'q' ] in
  List.iter
    (fun p ->
      let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string p) in
      match Toycrypto.Seal.unseal sk sealed with
      | Some out -> Alcotest.(check string) "roundtrip" p (Bytes.to_string out)
      | None -> Alcotest.fail "unseal failed")
    payloads

let test_seal_wrong_recipient () =
  let r = rng () in
  let pk1, _ = Toycrypto.Rsa.generate r in
  let _, sk2 = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk1 (Bytes.of_string "for the bank only") in
  Alcotest.(check bool) "other key cannot open" true
    (Toycrypto.Seal.unseal sk2 sealed = None)

let test_seal_tamper_detected () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string "sell 100") in
  let corrupted = Toycrypto.Seal.flip_bit sealed in
  Alcotest.(check bool) "bit flip detected" true
    (Toycrypto.Seal.unseal sk corrupted = None)

let test_seal_recipient_id () =
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string "hello") in
  Alcotest.(check int) "recipient tracked" (Toycrypto.Rsa.key_id pk)
    (Toycrypto.Seal.recipient_id sealed)

let test_seal_randomized () =
  (* Sealing the same payload twice must produce different envelopes
     (fresh session key and IV). *)
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  let a = Toycrypto.Seal.seal r pk (Bytes.of_string "same") in
  let b = Toycrypto.Seal.seal r pk (Bytes.of_string "same") in
  Alcotest.(check bool) "probabilistic encryption" true (a <> b)

let test_seal_size () =
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string "0123456789") in
  Alcotest.(check bool) "size covers ciphertext and key" true
    (Toycrypto.Seal.size_bytes sealed > 10)

let seal_roundtrip_prop =
  QCheck.Test.make ~name:"seal/unseal roundtrip" ~count:100
    QCheck.(pair small_nat string)
    (fun (seed, payload) ->
      let r = Sim.Rng.create (seed + 77) in
      let pk, sk = Toycrypto.Rsa.generate r in
      let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string payload) in
      Toycrypto.Seal.unseal sk sealed = Some (Bytes.of_string payload))

(* ------------------------------------------------------------------ *)
(* Nonce (NNC)                                                         *)
(* ------------------------------------------------------------------ *)

let test_nonce_nonrepetition () =
  let g = Toycrypto.Nonce.create (rng ()) in
  let seen = Hashtbl.create 1024 in
  for _ = 1 to 10_000 do
    let n = Toycrypto.Nonce.next g in
    Alcotest.(check bool) "fresh" false (Hashtbl.mem seen n);
    Hashtbl.replace seen n ()
  done;
  Alcotest.(check int) "count" 10_000 (Toycrypto.Nonce.count g)

let test_nonce_unpredictable_low_bits () =
  (* Two generators with different seeds must not produce the same
     low-bit stream. *)
  let g1 = Toycrypto.Nonce.create (Sim.Rng.create 1) in
  let g2 = Toycrypto.Nonce.create (Sim.Rng.create 2) in
  let lows g = List.init 10 (fun _ -> Int64.logand (Toycrypto.Nonce.next g) 0xFFFFFFFFL) in
  Alcotest.(check bool) "streams differ" true (lows g1 <> lows g2)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "toycrypto"
    [
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick test_siphash_vectors;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "message sensitivity" `Quick test_siphash_message_sensitivity;
          Alcotest.test_case "no allocation per byte" `Quick
            test_siphash_allocates_nothing_per_byte;
        ]
        @ qcheck [ siphash_matches_reference ] );
      ( "xtea",
        [
          Alcotest.test_case "block roundtrip" `Quick test_xtea_roundtrip_block;
          Alcotest.test_case "key matters" `Quick test_xtea_key_matters;
          Alcotest.test_case "cbc roundtrip" `Quick test_xtea_cbc_roundtrip;
          Alcotest.test_case "cbc wrong key" `Quick test_xtea_cbc_wrong_key;
          Alcotest.test_case "cbc chaining" `Quick test_xtea_cbc_blocks_chained;
          Alcotest.test_case "known answer" `Quick test_xtea_known_answer;
          Alcotest.test_case "cbc allocation" `Quick test_xtea_cbc_allocation;
        ]
        @ qcheck [ xtea_matches_reference ] );
      ( "rsa",
        Alcotest.test_case "mod_pow" `Quick test_mod_pow
        :: Alcotest.test_case "primality" `Quick test_primality
        :: Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip
        :: Alcotest.test_case "out of range" `Quick test_rsa_out_of_range
        :: Alcotest.test_case "distinct keys" `Quick test_rsa_distinct_keys
        :: qcheck [ rsa_roundtrip_prop ] );
      ( "seal",
        Alcotest.test_case "roundtrip" `Quick test_seal_roundtrip
        :: Alcotest.test_case "wrong recipient" `Quick test_seal_wrong_recipient
        :: Alcotest.test_case "tamper detected" `Quick test_seal_tamper_detected
        :: Alcotest.test_case "recipient id" `Quick test_seal_recipient_id
        :: Alcotest.test_case "randomized" `Quick test_seal_randomized
        :: Alcotest.test_case "size" `Quick test_seal_size
        :: qcheck [ seal_roundtrip_prop ] );
      ( "nonce",
        [
          Alcotest.test_case "nonrepetition" `Quick test_nonce_nonrepetition;
          Alcotest.test_case "unpredictable" `Quick test_nonce_unpredictable_low_bits;
        ] );
    ]
