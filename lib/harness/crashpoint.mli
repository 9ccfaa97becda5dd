(** Exhaustive crash-point sweep driver (the E23 engine).

    A {e crash point} is an event boundary: the engine monitor fires
    after every executed callback, so crashing "at event boundary p"
    means between the p-th and (p+1)-th callbacks — never inside one.
    Mutation, WAL append and flush issued by a single callback are
    therefore atomic with each other, which is exactly the invariant
    the kernel's group-commit flush policy is built on ({!Zmail.Isp}).

    The sweep first runs an undisturbed baseline of the scenario to
    measure its total event count [N], then runs the scenario once per
    crash point [p = s, 2s, ... <= N] for the stride [s = stride N].
    Each run builds a fresh world from the same seed (so the first [p]
    events are byte-identical to the baseline's — determinism makes
    "the p-th event" well-defined), crashes one victim there, lets the
    scheduled recovery replay its durable state and ends through
    {!Cell.finish}.
    Victims rotate round-robin over the compliant ISPs and the member
    banks, so with a stride of 1 every event boundary in the scenario is
    crashed by some victim.

    Every world of the sweep, the baseline included, runs the four
    online invariant checkers ({!Zmail.World.attach_invariants}) and
    must leave at quiescence an e-penny residue equal to what its
    cheaters minted.  Double-billing shows up there: a retried buy/sell
    applied twice by the bank would raise outstanding e-pennies twice
    against a single pool credit — exact conservation at quiescence
    {e is} the no-double-billing claim. *)

type victim = Isp of int | Bank of int  (** A member bank. *)

type run_report = {
  point : int;  (** Crash after this many executed events. *)
  victim : victim;
  crash_time : float;  (** Simulated time of the crash. *)
  wal_replayed : int;  (** Victim's delta records replayed at recovery. *)
  torn_tails : int;  (** Torn fragments the victim's power cut left. *)
  lost_bytes : int;  (** Unflushed bytes the victim's power cut destroyed. *)
  residue : int;  (** Equal to [minted]: the run fails otherwise. *)
  minted : int;
}

type report = {
  baseline_events : int;  (** [N]: events in the undisturbed run. *)
  stride : int;
  runs : run_report list;  (** In crash-point order. *)
}

val sweep :
  ?persist:Checkpoint.t ->
  ?label_prefix:string ->
  ?n_banks:int ->
  build:(unit -> Zmail.World.t) ->
  days:float ->
  downtime:float ->
  honest:(int -> bool) ->
  n_isps:int ->
  stride:(int -> int) ->
  unit ->
  report
(** The full sweep at one grid cell: the baseline (one undisturbed run
    of [build] through {!Cell.finish}, checkers attached) measures [N],
    [stride N] sets the stride, then one crashed
    run per point with round-robin victims ([n_isps] compliant ISPs,
    then the [n_banks] member banks, default 1), each down for
    [downtime] seconds.  Runs are labelled
    ["<label_prefix>/p<point>-<victim>"] (["p<point>-<victim>"] with no
    prefix); with [persist] each run is its own snapshot/resume-aware
    segment under that label.  The run claims the engine monitor for
    its event counter until the crash fires.
    @raise Failure naming the run's label if, in any run, the crash
    point is never reached, a crash is not recovered, a WAL replay
    returns [Error], an ISP for which [honest] holds is convicted, the
    residue differs from the cheat-minted total, or a checker never
    ran.
    @raise Obs.Invariant.Violation at the first inconsistent event.
    @raise Invalid_argument on a stride, ISP or bank count below 1
    (the stride checked once the baseline has run). *)

type summary = {
  points : int;
  isp_crashes : int;
  bank_crashes : int;
  max_replayed : int;
  total_torn_tails : int;
      (** Across runs: evidence the torn-tail fault actually fired. *)
  total_lost_bytes : int;
      (** Across runs: unflushed bytes the power cuts destroyed —
          non-zero whenever group commit left a lazy suffix volatile. *)
}

val summarize : report -> summary
