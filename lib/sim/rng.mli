(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the repository flows through a value of
    type {!t}, so that any simulation or experiment is reproducible
    bit-for-bit from its seed.  The generator is the SplitMix64 mixer of
    Steele, Lea and Flood, which has a full 2{^64} period and passes
    BigCrush; it is not cryptographically secure (see {!Toycrypto} for the
    protocol-facing randomness). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator that continues [t]'s stream;
    advancing one does not affect the other. *)

val stream : seed:int -> tag:int -> t
(** [stream ~seed ~tag] derives the subsystem stream identified by
    [tag] (a small per-subsystem constant) from a world seed.  Both
    inputs pass independently through the SplitMix64 finalizer before
    combining, so streams with distinct tags — and the root stream of
    {!create} — cannot be made to coincide or swap by adversarial seed
    choice.  (The previous [seed lxor tag] scheme failed both ways:
    seed [tag] yielded [create 0]'s stream, and seeds differing by
    [tag1 lxor tag2] swapped the two subsystems' streams.) *)

val stream_n : seed:int -> tag:int -> int -> t
(** [stream_n ~seed ~tag n] is the [n]-th sub-stream of
    [stream ~seed ~tag] — one independent stream per indexed instance
    (e.g. per-ISP wire taps) under a single subsystem tag.
    @raise Invalid_argument on a negative index. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream, advancing [t].
    Streams of the parent and child are statistically independent. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** Capture/restore of the single state word (see [lib/persist]).
    Restore is reached only from a WAL checkpoint image (a kernel's
    [restore_kernel]); it overwrites [t] in place so every component
    already holding this generator keeps its reference. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)] with 53-bit resolution. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array.
    @raise Invalid_argument on an empty array. *)
