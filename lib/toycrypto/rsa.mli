(** Textbook RSA at toy parameters, used only to wrap session keys in
    {!Seal}.

    The algorithms (Miller–Rabin primality, modular exponentiation,
    extended-Euclid inverse) are real; the modulus is deliberately small
    (~30 bits) so that key generation and arithmetic stay in native
    ints.  DESIGN.md documents this substitution: the protocol depends
    only on the {e functional} properties (only the private key
    decrypts; public keys are shareable), not on brute-force margin. *)

type public = private { n : int; e : int }
type secret = private { n : int; d : int }

val generate : Sim.Rng.t -> public * secret
(** Generate a fresh keypair with two random ~15-bit primes and
    [e = 65537]. *)

val key_id : public -> int
(** Stable identifier for a public key (its modulus). *)

val encrypt : public -> int -> int
(** [encrypt pk m] for [0 <= m < n].
    @raise Invalid_argument when [m] is out of range. *)

val decrypt : secret -> int -> int

val sign : secret -> bytes -> int
(** Textbook RSA signature over a SipHash digest of the message
    (hash-then-sign, digest reduced mod [n]). *)

val verify_sig : public -> bytes -> int -> bool
(** Check a {!sign}ature with the matching public key. *)

val is_probable_prime : Sim.Rng.t -> int -> bool
(** Miller–Rabin with 20 random witnesses; exposed for tests. *)

val mod_pow : int -> int -> int -> int
(** [mod_pow b e m] = b{^e} mod m, for moduli below 2{^31}; exposed for
    tests. *)
