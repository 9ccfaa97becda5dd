(** E23: durable write-ahead billing logs under disk-fault injection,
    with an exhaustive crash-point recovery sweep ({!Crashpoint}).

    Every compliant kernel and the bank keep an incremental WAL on a
    simulated storage device ({!Sim.Disk}); the sweep crashes one
    victim — each ISP and the bank, round-robin — at every k-th event
    boundary, recovery replays the surviving log, and the run drains to
    quiescence.  The grid crosses crash-point density (every boundary
    vs sampled) x disk-fault level (reliable at group-commit 1, torn
    final appends at group 4, torn plus bit rot at group 8) x mesh
    chaos (calm vs lossy bank link).  Per cell the table reports the
    baseline event count, crash points run, records replayed, torn
    tails and bytes lost.  Every swept world runs the online checkers;
    a missed crash point, an unrecovered crash, a WAL fallback, a
    residue other than the cheat-minted total (the no-double-billing
    oracle) or an honest conviction fails the run loudly, naming the
    cell, crash point and victim.

    [full] runs the complete density x fault x chaos cross at stride
    1.  Deterministic per seed; snapshot/resume-aware through
    [persist] (each crashed run is its own labeled segment). *)

val run :
  ?obs:Obs.Run.t ->
  ?persist:Checkpoint.t ->
  ?seed:int ->
  ?full:bool ->
  unit ->
  Sim.Table.t list
