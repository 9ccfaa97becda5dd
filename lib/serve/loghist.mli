(** Latency histogram on a log10 scale.

    A thin wrapper over {!Sim.Stats.Histogram} that bins
    [log10 seconds] over [1e-4 s, 1e5 s) with 20 bins per decade, so
    one instrument resolves both a 60 ms clean session and a
    multi-hour retry storm.  Quantiles come back in seconds. *)

type t

val create : unit -> t
val add : t -> float -> unit
(** Record one latency in seconds (non-positive values clamp into the
    underflow bucket). *)

val count : t -> int

val quantile : t -> float -> float
(** [quantile t q] in seconds; [nan] when empty.  The estimate
    inherits {!Sim.Stats.Histogram.quantile}'s one-bucket error bound,
    which on this log grid is a constant {e relative} error: at 20
    bins per decade the true value lies within a factor of
    [10^0.05 ≈ 1.122] of the estimate (under/overflow clamp to the
    range ends). *)

val encode_state : Persist.Codec.W.t -> t -> unit
