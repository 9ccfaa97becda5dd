(** Hand-rolled, versioned, length-prefixed binary codec.

    This is the persistence sibling of [Zmail.Wire]: nothing is ever
    [Marshal]ed, every length is checked against the remaining input,
    and any tampering — truncation, a flipped bit, a wrong tag — is a
    parse error, never a wrong value.  Writers append to an internal
    buffer; readers walk a string and raise {!Corrupt} (with the byte
    offset) on the first malformed field.  {!Snapshot} wraps whole
    files in CRC-protected sections so corruption is caught before any
    field is interpreted at all. *)

exception Corrupt of string
(** Malformed input: truncated, out-of-range, bad tag, or a
    shape mismatch a WAL checkpoint's decoder detects against the live
    kernel.  The message includes the byte offset where decoding
    failed. *)

module Crc32 : sig
  val string : ?crc:int -> string -> int
  (** CRC-32 (IEEE 802.3, reflected) as an unsigned 32-bit value in
      [\[0, 0xFFFFFFFF\]].  [?crc] continues a running checksum, so
      [string ~crc:(string a) b = string (a ^ b)] and a file CRC can be
      computed incrementally. *)

  val sub : ?crc:int -> string -> pos:int -> len:int -> int
  (** [sub s ~pos ~len] is [string (String.sub s pos len)] without the
      copy.
      @raise Invalid_argument if the range is not inside [s]. *)
end

module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val length : t -> int

  val u8 : t -> int -> unit
  (** One byte; the value must be in [\[0, 255\]]. *)

  val u32 : t -> int -> unit
  (** Four little-endian bytes; the value must fit 32 unsigned bits. *)

  val i64 : t -> int64 -> unit
  val int : t -> int -> unit
  (** Full-width OCaml int, stored as an [i64]. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  (** IEEE-754 bits: round-trips exactly, including infinities and
      (one bit pattern of) nan. *)

  val str : t -> string -> unit
  (** [u32] length followed by the raw bytes. *)

  val opt : (t -> 'a -> unit) -> t -> 'a option -> unit
  val list : (t -> 'a -> unit) -> t -> 'a list -> unit
  val array : (t -> 'a -> unit) -> t -> 'a array -> unit
  val int_array : t -> int array -> unit
  val pair : (t -> 'a -> unit) -> (t -> 'b -> unit) -> t -> 'a * 'b -> unit
end

module R : sig
  type t

  val of_string : string -> t
  val pos : t -> int

  val corrupt : t -> string -> 'a
  (** Raise {!Corrupt} at the current offset.  Kernel decoders use
      this to reject structurally valid input that contradicts the live
      value being restored (wrong array size). *)

  val u8 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int : t -> int
  val bool : t -> bool
  val float : t -> float
  val str : t -> string
  val opt : (t -> 'a) -> t -> 'a option
  val list : (t -> 'a) -> t -> 'a list
  val array : (t -> 'a) -> t -> 'a array
  val int_array : t -> int array
  val pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b

  val expect_end : t -> unit
  (** @raise Corrupt if any input bytes remain: trailing garbage is
      tampering, not padding. *)
end

val decode : (R.t -> 'a) -> string -> ('a, string) result
(** Run a reader over a whole string ([expect_end] included), turning
    {!Corrupt} into [Error]. *)

val to_string : (W.t -> 'a -> unit) -> 'a -> string
(** Run a writer on a fresh buffer and return the bytes. *)
