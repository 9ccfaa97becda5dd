(** E17 (scale) — the zero-sum and detection claims at 10^4–10^6 users.

    Where E2/E3 establish the claims on a handful of ISPs, E17 re-runs
    them on worlds of 10 × 1000 and 100 × 1000 users (and 1000 × 1000
    behind [~million]) with Zipf-distributed sender activity: a fixed
    budget of sends is drawn rank-first from [Sim.Dist.zipf ~s:1.1]
    and scattered across ISPs by a stride coprime to the user count,
    so a few users send most of the mail — the regime the paper's
    economics actually target.  Mailboxes run with [retain_mail=false]
    (deliveries are counted and filtered but not stored), which is
    what keeps the heap flat at this scale.

    The table carries only deterministic counts (sends, deliveries,
    audits, the cheater's detection day, minted-vs-residue), so
    experiment output never varies by machine; perfbench's
    [zipf_scale] workload times the same shape of world.  The four
    online invariant checkers watch every row, a row whose residue
    differs from the cheat-minted total fails the run, and each row is
    driven through checkpoint/resume when [persist] is active. *)

type outcome = {
  isps : int;
  users : int;
  attempts : int;  (** Sends drawn from the Zipf workload. *)
  paid : int;
  free : int;
  deferred : int;  (** Buffered by a snapshot freeze, sent at thaw. *)
  blocked : int;  (** Refused by the sender-side kernel. *)
  failed : int;  (** Sender ISP down (never happens here; no chaos). *)
  delivered : int;
  audits : int;
  first_flagged : float option;
      (** Simulated time the cheater first appeared in an audit's
          suspect list. *)
  false_accusations : int;
  minted : int;
  residue : int;  (** Must equal [minted] at quiescence. *)
  events : int;  (** Engine events fired. *)
  metrics : Sim.Table.t;
      (** Snapshot of the world's metric registry at quiescence;
          appended to the experiment output under [--metrics]. *)
}

val run_scale :
  ?tracer:Obs.Trace.t ->
  ?persist:Checkpoint.t ->
  seed:int ->
  n_isps:int ->
  users_per_isp:int ->
  ?sends_per_user:int ->
  unit ->
  outcome
(** One world at the given scale, driven to quiescence with invariant
    checkers attached ([sends_per_user] defaults to 3), through
    {!Cell.finish}.  Raises {!Obs.Invariant.Violation} if any online
    checker trips, and [Failure] if the residue differs from the
    cheat-minted total or a checker never ran.  Exposed so tests can
    drive a miniature row without the table renderer. *)

val run :
  ?obs:Obs.Run.t ->
  ?persist:Checkpoint.t ->
  ?seed:int ->
  ?million:bool ->
  ?domains:int ->
  unit ->
  Sim.Table.t list
(** The experiment: the 10k and 100k rows, plus the 1M row when
    [million] is set (minutes of wall-clock; off by default and in
    CI).

    With [domains] set the standard rows are replaced by the sharded
    variant: a {!Zmail.Parworld} (disjoint ISP groups, barrier-merged
    cross-group mail) stepped on that many OCaml 5 domains.  Stdout is
    byte-identical for every [domains] value — the CI multi-domain
    lane diffs [--domains 1] against [--domains 2] — and the domain
    count is reported on stderr only.  [persist] is ignored on this
    path: checkpoint/resume drives a single world, and the sharded
    world's determinism is enforced by capture comparison (E22)
    instead. *)
