(** Exhaustive crash-point sweep driver (the E23 engine).

    A {e crash point} is an event boundary: the engine monitor fires
    after every executed callback, so crashing "at event boundary p"
    means between the p-th and (p+1)-th callbacks — never inside one.
    Mutation, WAL append and flush issued by a single callback are
    therefore atomic with each other, which is exactly the invariant
    the kernel's group-commit flush policy is built on ({!Zmail.Isp}).

    The sweep first runs an undisturbed baseline of the scenario to
    measure its total event count [N], then runs the scenario once per
    crash point [p = stride, 2*stride, ... <= N].  Each run builds a
    fresh world from the same seed (so the first [p] events are
    byte-identical to the baseline's — determinism makes "the p-th
    event" well-defined), crashes one victim there, lets the scheduled
    recovery replay its durable state, drains to quiescence and reads
    the money oracles.  Victims rotate round-robin over the compliant
    ISPs and the member banks, so with [stride = 1] every event
    boundary in the scenario is crashed by some victim.

    Double-billing shows up in the residue oracle: a retried buy/sell
    applied twice by the bank would raise outstanding e-pennies twice
    against a single pool credit, so [residue <> minted] — exact
    conservation at quiescence {e is} the no-double-billing claim. *)

type victim = Isp of int | Bank of int  (** A member bank. *)

val victim_to_string : victim -> string
(** ["isp<i>"], ["bank"] for member 0 and ["bank<b>"] for any other. *)

type run_report = {
  point : int;  (** Crash after this many executed events. *)
  victim : victim;
  crash_time : float;  (** Simulated time of the crash; nan if never fired. *)
  crashed : bool;  (** The run reached the crash point. *)
  recovered : bool;  (** Every crash was matched by a recovery. *)
  fallbacks : int;  (** [wal_fallbacks] — WAL replays that returned [Error]. *)
  wal_replayed : int;  (** Victim's delta records replayed at recovery. *)
  torn_tails : int;  (** Torn fragments the victim's power cut left. *)
  lost_bytes : int;  (** Unflushed bytes the victim's power cut destroyed. *)
  residue : int;
  minted : int;
  conserved : bool;
      (** residue = cheat-minted at quiescence — zero-sum modulo
          exactly the cheat, the strongest claim a run with a resident
          cheater can make ({!Zmail.World.epenny_residue}). *)
  false_convictions : int;  (** Honest ISPs convicted by any audit round. *)
}

type report = {
  baseline_events : int;  (** [N]: events in the undisturbed run. *)
  stride : int;
  runs : run_report list;  (** In crash-point order. *)
}

val baseline_events : build:(unit -> Zmail.World.t) -> days:float -> int
(** Events fired by one undisturbed run of the scenario: [build] a
    world (workload attached), advance [days], drain to quiescence. *)

val crash_run :
  ?persist:Checkpoint.t ->
  ?label:string ->
  build:(unit -> Zmail.World.t) ->
  days:float ->
  downtime:float ->
  honest:(int -> bool) ->
  point:int ->
  victim:victim ->
  unit ->
  run_report
(** One crashed run.  [honest i] scopes the false-conviction count.
    With [persist] and [label] the run advances through
    {!Checkpoint.drive} (snapshot/resume-aware); the label must be
    unique per run within the experiment.  Claims the engine monitor
    for the event counter until the crash fires. *)

val sweep :
  ?persist:Checkpoint.t ->
  ?label_prefix:string ->
  ?n_banks:int ->
  build:(unit -> Zmail.World.t) ->
  days:float ->
  downtime:float ->
  honest:(int -> bool) ->
  n_isps:int ->
  stride:int ->
  unit ->
  report
(** The full sweep at one grid cell: baseline count, then one
    {!crash_run} per point with round-robin victims ([n_isps] compliant
    ISPs, then the [n_banks] member banks, default 1).  Run labels are
    ["<label_prefix>/p<point>-<victim>"].
    @raise Invalid_argument on a stride, ISP or bank count below 1. *)

type summary = {
  points : int;
  isp_crashes : int;
  bank_crashes : int;
  all_crashed : bool;
  all_recovered : bool;
  total_fallbacks : int;
  max_replayed : int;
  total_torn_tails : int;
      (** Across runs: evidence the torn-tail fault actually fired. *)
  total_lost_bytes : int;
      (** Across runs: unflushed bytes the power cuts destroyed —
          non-zero whenever group commit left a lazy suffix volatile. *)
  all_conserved : bool;
  total_false_convictions : int;
}

val summarize : report -> summary
