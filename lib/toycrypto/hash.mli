(** SipHash-2-4 (Aumasson & Bernstein), a keyed 64-bit hash.

    Used as the MAC inside {!Seal} and anywhere the protocol needs a
    short authenticator.  This is the real algorithm, not a toy; only
    the surrounding key sizes in {!Rsa} are toy-scaled. *)

type key = int64 * int64
(** A 128-bit key as two little-endian 64-bit halves. *)

val siphash : key:key -> bytes -> int64
(** SipHash-2-4 of the whole buffer. *)

val siphash_string : key:key -> string -> int64
