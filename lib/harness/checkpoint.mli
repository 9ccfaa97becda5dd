(** Checkpoint / resume driver for world-backed experiments.

    Event callbacks are closures and cannot be serialized, so resume is
    {e deterministic replay with byte-verification}: the experiment
    rebuilds its world from (experiment, label, seed) exactly as it
    always does, {!drive} replays it to the snapshot's capture time,
    and the replayed world's {!Zmail.World.capture} must
    {!Persist.Snapshot.diff} clean against the snapshot before the run
    continues.  A mismatch aborts the run — a snapshot can gate
    against code drift, but never restore a subtly different world.
    Byte-identical stdout/trace output of resumed and straight-through
    runs holds by construction: segmented [Sim.Engine.run ~until] calls
    are observationally identical to one straight call, and capture
    never mutates the world.  All checkpoint chatter goes to stderr.

    See DESIGN.md §8. *)

type t

exception Stopped of { time : float; file : string option }
(** Raised out of {!drive} once simulated time reaches [stop_at] and
    the snapshot has been written.  The front end catches it, reports
    on stderr and exits 0. *)

val none : t
(** Inert: {!drive} is exactly [World.run_days]. *)

val create :
  ?checkpoint_every:float ->
  ?snapshot:string ->
  ?resume:string ->
  ?stop_at:float ->
  experiment:string ->
  unit ->
  t
(** [checkpoint_every] (simulated seconds) periodically rewrites
    [snapshot]; [stop_at] (absolute simulated seconds) writes it one
    final time and raises {!Stopped}; [resume] loads a snapshot file
    eagerly (so a corrupt file fails before any simulation runs) and
    arms the replay-verify path.
    @raise Invalid_argument on a non-positive period, a negative stop
    time, [checkpoint_every]/[stop_at] without [snapshot], an
    unreadable or corrupt resume file, or a resume file written by a
    different experiment. *)

val active : t -> bool

val drive : t -> ?label:string -> world:Zmail.World.t -> days:float -> unit -> unit
(** Advance [world] by [days] simulated days — the checkpoint-aware
    replacement for [World.run_days].  [label] identifies the scenario
    within the experiment (snapshots record it; a resume only triggers
    in a segment whose label and world seed match the snapshot).
    Within the segment: replays to the resume point and verifies (once,
    on the first matching segment that spans it), writes periodic
    checkpoints, and honours [stop_at].
    @raise Stopped at the stop point.
    @raise Failure if resume verification finds any divergence. *)

val finished : t -> (unit, string) result
(** Call after the experiment returns: [Error] if [t] is {!active} but
    the experiment never called {!drive} (it does not checkpoint, so
    the flags did nothing), or if a loaded resume snapshot was never
    matched by any {!drive} segment (wrong seed or arguments — the run
    silently did NOT resume). *)

val snapshots_written : t -> int
val resumes_verified : t -> int
