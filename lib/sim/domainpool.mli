(** Deterministic parallel map over OCaml 5 domains.

    On OCaml >= 5 this spawns up to [domains] worker {!Domain}s; on
    4.x the same interface compiles against a sequential fallback, so
    callers never need version conditionals.  The mapping is
    position-stable: element [i] of the result is always [f xs.(i)],
    regardless of backend or domain count, which is what lets the
    multi-domain world step produce byte-identical output to the
    single-domain one (see [Zmail.Parworld]). *)

val available : bool
(** [true] iff real domain parallelism is compiled in (OCaml >= 5). *)

exception Worker_failure of exn
(** Wraps the first exception raised by any [f xs.(i)]; remaining
    workers drain without starting new elements. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] applies [f] to every element of [xs], using up
    to [domains] concurrent domains ([domains <= 1] runs sequentially
    in the calling domain).  Work is partitioned statically — worker
    [w] of [k] takes indices [w, w+k, ...] — so each result slot has a
    single writer.  [f] must not share mutable state across elements.

    On OCaml >= 5 the worker domains are spawned once and reused
    across calls (parked between jobs; joined via [at_exit]), because
    a [Domain.spawn]/[join] pair is a stop-the-world event costing
    milliseconds on some runtimes — far more than a typical
    per-barrier step.  The caller runs slice 0 itself, so [~domains:k]
    keeps at most [k - 1] pooled workers busy.  Concurrent [map] calls
    serialize against each other.
    @raise Worker_failure if any application raises. *)
