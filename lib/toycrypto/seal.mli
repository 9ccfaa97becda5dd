(** Authenticated public-key encryption — the paper's [NCR]/[DCR].

    Hybrid construction: a fresh 128-bit XTEA session key is split into
    ten 14-bit chunks (five per 64-bit half), each wrapped with the
    recipient's RSA public key; the payload is XTEA-CBC encrypted under
    a random IV; a SipHash-2-4 MAC keyed by the session key
    authenticates IV and ciphertext.  [unseal] returns [None] on any
    failure (wrong key, truncation, bit flips), which is how the Zmail
    bank and ISPs reject forged traffic. *)

type sealed
(** An opaque sealed envelope.  Structurally comparable, so it can
    travel through {!Apn} channels and be stored in replay tests. *)

val seal : Sim.Rng.t -> Rsa.public -> bytes -> sealed
(** Encrypt-and-authenticate [payload] to the holder of the matching
    secret key. *)

val unseal : Rsa.secret -> sealed -> bytes option
(** Recover the payload; [None] when the envelope was not produced for
    this key or was tampered with. *)

val recipient_id : sealed -> int
(** The {!Rsa.key_id} of the intended recipient (envelopes are not
    anonymous, matching the paper where ISPs know the bank's key). *)

val flip_bit : sealed -> sealed
(** Corrupt one ciphertext bit — for tamper-detection tests. *)

val size_bytes : sealed -> int
(** Wire-size estimate of the envelope, used by the accounting-cost
    experiment (E4). *)

val forge : Sim.Rng.t -> recipient:int -> len:int -> sealed
(** A structurally valid envelope with random key material, ciphertext
    ([len] bytes) and MAC — an adversary's best forgery without the
    recipient's secret.  {!unseal} rejects it (MAC mismatch).  Used by
    the bank-wire adversary and the fuzz tests. *)

val encode_bin : Persist.Codec.W.t -> sealed -> unit
val decode_bin : Persist.Codec.R.t -> sealed
(** Binary value codec.  Bank-wire adversaries keep captured envelopes
    as replay ammunition, which is real protocol state and must ride in
    world snapshots.  [decode_bin] raises [Persist.Codec.Corrupt] on
    malformed input. *)
