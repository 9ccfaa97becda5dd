(** XTEA (Needham & Wheeler), a 64-bit block cipher with a 128-bit key,
    with CBC mode and PKCS#7 padding over byte buffers.

    This is the genuine 32-round XTEA; it provides the symmetric layer
    of {!Seal}'s hybrid encryption. *)

type key
(** A 128-bit key, with its 32-round key schedule computed once when
    the key is built. *)

val key_of_words : int -> int -> int -> int -> key
(** Build a key from four 32-bit words (values are masked to 32 bits). *)

val key_of_int64s : int64 -> int64 -> key
(** Build a key from two 64-bit halves. *)

val random_key : Sim.Rng.t -> key
val key_words : key -> int * int * int * int

val encrypt_block : key -> int64 -> int64
val decrypt_block : key -> int64 -> int64
(** Raw 64-bit block operations: [decrypt_block k (encrypt_block k b) = b]. *)

val encrypt_cbc : key -> iv:int64 -> bytes -> bytes
(** PKCS#7-pad and encrypt; output length is a multiple of 8 and
    strictly greater than the input length. *)

val decrypt_cbc : key -> iv:int64 -> bytes -> bytes option
(** Inverse of {!encrypt_cbc}; [None] if the input length or padding is
    invalid (wrong key, wrong IV, truncation or corruption). *)
