(** Measurement helpers used by experiments: streaming summaries,
    histograms and time series. *)

(** Streaming summary statistics (Welford's online algorithm). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** Mean of the observations; [0.] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  (** Smallest observation; [0.] when empty (like {!mean}), never
      [nan]. *)

  val max : t -> float
  (** Largest observation; [0.] when empty (like {!mean}), never
      [nan]. *)

  val merge : t -> t -> t
  (** Summary of the union of both observation streams.  Merging with
      an empty summary is the identity: the other side's extrema are
      preserved and no [nan] is introduced. *)

  val encode_state : Persist.Codec.W.t -> t -> unit
  (** Snapshot capture (see [lib/persist]). *)
end

(** Fixed-range linear histogram with under/overflow buckets. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** [create ~lo ~hi ~bins] divides [\[lo, hi)] into [bins] equal
      buckets.  Requires [lo < hi] and [bins >= 1]. *)

  val add : t -> float -> unit
  val count : t -> int
  val underflow : t -> int
  val overflow : t -> int
  val bucket : t -> int -> int
  (** Count in the [i]-th in-range bucket. *)

  val quantile : t -> float -> float
  (** [quantile t q] estimates the [q]-quantile ([0 <= q <= 1]) by
      linear interpolation within buckets; underflow and overflow
      observations clamp to the range ends. [nan] when empty.

      Contract for out-of-range mass: if the target rank falls within
      the underflow count the result is exactly [lo], and if it falls
      beyond the in-range mass (i.e. in the overflow region, when
      [overflow t > 0]) the result is exactly [hi].  No extrapolation
      beyond [\[lo, hi\]] is ever performed. *)

  val encode_state : Persist.Codec.W.t -> t -> unit
  (** Snapshot capture (see [lib/persist]). *)
end

(** Time-stamped series of samples, recorded in increasing time order. *)
module Series : sig
  type t

  val create : string -> t
  val name : t -> string
  val record : t -> time:float -> float -> unit
  val length : t -> int
  val to_list : t -> (float * float) list
  (** Samples in recording order. *)

  val last : t -> (float * float) option

end

(** Named monotone counters. *)
module Counter : sig
  type t

  val create : string -> t
  val name : t -> string
  val incr : ?by:int -> t -> unit
  val value : t -> int

  val encode_state : Persist.Codec.W.t -> t -> unit
  (** Snapshot capture (see [lib/persist]). *)
end
