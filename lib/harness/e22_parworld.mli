(** E22 — domain-parallel determinism.

    Each scenario builds the same {!Zmail.Parworld} twice, steps one
    copy on a single domain and the other on [domains] (default 2 — a
    fixed count, never the machine's, so output is machine-portable),
    and byte-compares the two full captures: a difference fails the
    run, naming the scenario and the first section that differs.  A
    partition scenario deliberately straddles a merge barrier.  Reading guide for throughput lives in the bench
    [engine.domains] row, not here — this table is deterministic by
    construction.  [obs]/[persist] are accepted for harness uniformity
    and ignored: determinism here is enforced by capture comparison,
    not checkpoint/resume. *)

val run :
  ?obs:Obs.Run.t ->
  ?persist:Checkpoint.t ->
  ?seed:int ->
  ?domains:int ->
  unit ->
  Sim.Table.t list
