(** The assembled Zmail Internet: n ISPs × m users on the simulated
    SMTP network, k member banks on signed/sealed links (§5's "set of
    distributed banks"; one honest bank by default), and workload
    generators — the substrate every timed experiment runs on.

    Layering per message: a user send first passes the sender-side
    kernel ({!Isp.charge_send}); if paid it is stamped with the
    [X-Zmail-Payment] header and submitted to the ISP's MTA, which runs
    the full RFC 821 dialogue to the destination MTA; the receiving
    ISP's inbound filter applies {!Isp.accept_delivery}, intercepts
    protocol traffic (mailing-list acks), and enforces the configured
    policy toward unpaid mail from non-compliant ISPs.

    Every link in the world can misbehave.  The inter-ISP SMTP mesh is
    reliable only under the default configuration: per-link
    {!Sim.Fault.plan}s ([mesh_default], [bank_fault]) and scheduled
    {!Sim.Fault.Mesh.partition} windows ([partitions]) can drop, delay
    or sever any session, and the MTAs respond with bounded retry
    queues, capped exponential backoff and bounce-with-refund when a
    message dies on a dead link ({!Smtp.Mta.set_retry_policy}).

    Each ISP banks at its home member ([banks]), which holds its
    account, serves its buys and sells and audits it; every
    ISP-to-bank envelope goes through {!Federation.on_isp_message}.
    Bank traffic bypasses SMTP — the paper describes the ISP–bank
    relationship as a direct accounting link — and travels as datagrams
    with configurable latency over the same physical mesh (member [b]
    is mesh node [n_isps + b], for [b] in [0 … k−1];
    {!Sim.Fault.Mesh.route}), so a partition that severs an ISP from
    its home bank's group silences its audit traffic exactly as it
    silences its mail.  The ISP↔bank links can be
    degraded through [bank_fault]: dropped, duplicated, delayed,
    corrupted or cut by outage windows.  The world compensates with
    at-least-once delivery — every buy/sell/audit exchange is
    retransmitted under one capped exponential backoff
    ({!Sim.Retry}: 5 s doubling to 900 s; audit requests first wait
    out a freeze, [freeze_duration + 5] s) until acknowledged — and the
    protocol's nonces make the retries idempotent (the bank's reply cache absorbs
    duplicates, corrupt messages fail crypto verification and are
    counted, never raised).  A world with a disk ([cfg.disk]) can
    also {!crash_isp} or {!crash_bank} mid-run; recovery replays the
    victim's write-ahead log.  An audit round opens at every member
    for the ISPs homed there and closes once, when the last member has
    collected its replies, checking all rows in one pass
    ({!Federation.close_round}).  Audit rounds are
    partition-tolerant: a round facing ISPs that a partition severs
    from their home bank runs without them iff at least half of the
    compliant population is reachable (their peers' claims are
    carried forward, and the banks reconcile their late cumulative
    reports after heal — {!Bank.start_audit}); otherwise it is
    deferred, counted in [audits_deferred].  Only partition-severed
    ISPs count as unreachable; crashed ISPs keep their requests
    retransmitted until recovery.  ISP↔bank datagrams take 0.1 s each way.  Byzantine report tampering is modeled by
    {!register_adversary}. *)

(** Fate of unpaid mail (from non-compliant ISPs) at a compliant ISP —
    §5 lists exactly these choices: accept, "segregate or discard", or
    "require any email from a non-compliant ISP to pass a spam
    filter".  Paid mail always bypasses the policy: that is the whole
    point of the scheme. *)
type unpaid_policy =
  | Unpaid_deliver
  | Unpaid_discard
  | Unpaid_filter of { score : string list -> float; threshold : float }
      (** The message's subject and body are lowercased and
          whitespace-tokenised; it is discarded when
          [score tokens >= threshold].  Plug in
          [Baselines.Bayes_filter.spam_probability] as the scorer. *)

type config = {
  n_isps : int;
  users_per_isp : int;
  compliant : bool array;
  seed : int;
  shard_tag : string;
      (** Disambiguates ISP domain names across coexisting worlds.
          With the default [""] ISP [i]'s domain is ["isp<i>.example"]
          (byte-identical to every earlier snapshot); a non-empty tag
          yields ["isp<i>.<tag>.example"].  {!Parworld} gives each
          shard world a distinct tag: the SMTP domain intern table is
          process-global, so identical domain strings would alias
          cross-shard mail into the destination world's own ISPs. *)
  audit_period : float option;
      (** Run a §4.4 audit every this many seconds ([None]: only
          manual {!trigger_audit}). *)
  freeze_duration : float;  (** The paper's 10 minutes. *)
  pool_check_period : float;
      (** How often ISPs evaluate §4.3 pool thresholds. *)
  unpaid_policy : unpaid_policy;
      (** Fate of mail from non-compliant ISPs at compliant ones. *)
  auto_ack : bool;  (** Generate §5 mailing-list acknowledgments. *)
  customize_isp : int -> Isp.config -> Isp.config;
      (** Per-ISP overrides (cheats, limits, pool bounds). *)
  bank_fault : Sim.Fault.plan;
      (** Fault plan of every ISP↔bank link, in both directions
          (default {!Sim.Fault.reliable}): the plan of links [(i, h)]
          and [(h, i)] for every ISP [i], where [h = n_isps + home i]
          is its home bank's node.  A non-reliable [bank_fault]
          {e replaces} [mesh_default] on the bank links — the two
          plans do not compound. *)
  mesh_default : Sim.Fault.plan;
      (** Fault plan for every directed link of the physical mesh —
          inter-ISP SMTP sessions and ISP↔bank accounting datagrams
          alike (default {!Sim.Fault.reliable}; only the plan's
          drop/delay/outage components apply to sessions, every
          component applies to datagrams). *)
  partitions : Sim.Fault.Mesh.partition list;
      (** Scheduled partition windows: while active, every cross-group
          attempt — mail or bank traffic — is lost. *)
  bank_wire : (int * Adversary.Bank_wire.wire_behavior) list;
      (** Per-ISP adversary taps on the ISP→bank wire (default none).
          The tap sees every outbound buy/sell/audit-reply envelope
          before the mesh and may forge, replay, reorder or
          selectively drop it ({!Adversary.Bank_wire}).  The tapped
          ISP itself stays honest — its books and reports are
          truthful; the adversary owns the link — so any audit
          conviction of it is a false positive (E19 asserts zero).
          Duplicate, out-of-range or non-compliant indices are
          rejected by {!create}. *)
  retain_mail : bool;
      (** Store delivered messages in MTA mailboxes (default [true]).
          Million-user runs set [false]: deliveries are still counted,
          filtered and fed to hooks, but not retained — see
          {!Smtp.Mta.set_retain_mail}. *)
  disk : Sim.Disk.plan option;
      (** Attach a simulated storage device ({!Sim.Disk}) to every
          compliant kernel and to every member bank, each keeping a write-ahead
          log: billing-relevant transitions are appended as CRC'd
          sequence-numbered records and crash recovery replays the
          surviving log ({!Isp.recover_wal}, {!Bank.recover_wal}).  The
          plan sets the devices' power-cut fault behavior (torn final
          append, bit rot on the torn fragment); each device draws its
          fault decisions from its own root-seeded stream, so attaching
          disks never perturbs workload randomness.  [None] (the
          default) logs nothing and costs nothing per operation, but a
          world without a disk cannot crash ({!crash_isp},
          {!crash_bank}). *)
  wal_group : int;
      (** Group-commit factor for ISP WALs: lazy records (those that
          move no money and draw no randomness) are batched and flushed
          every [wal_group] appends; records with billing effect always
          flush immediately.  1 = flush every record (strictest).
          Default 8 (see the durability notes in {!Isp.create}).
          Ignored without [disk]. *)
  serving : Serve.Config.t option;
      (** Route remote SMTP delivery through the serving path
          ({!Serve.Dispatch}): bounded per-lane admission queues,
          concurrent phase-by-phase sessions, and per-class latency
          SLOs ({!Serve.Slo}).  Overload surfaces as
          {!send_result.Backpressured} (paid sends are refunded).
          [None] (the default) keeps the direct fast path — one
          latency draw, synchronous dialogue. *)
  tracer : Obs.Trace.t option;
      (** Record protocol events into this tracer and arm the engine
          monitor (callback wall-clock summary, queue-depth series).
          [None] (the default): the world keeps a private, initially
          inert tracer that only starts emitting if invariant checkers
          subscribe to it — zero overhead otherwise. *)
  banks : Federation.config;
      (** The bank layout: each ISP's home member and each member's
          {!Federation.bank_behavior} ([n_isps] must match).  Default
          [Federation.default_config ~n_banks:1 ~n_isps]: one honest
          bank.  A world on more than one bank cannot be
          {!capture}d. *)
}

val auto_topup : Epenny.amount
(** 50: §1.2's balance buffering.  When a send is blocked for lack of
    e-pennies, the user buys this many from the ISP pool (against the
    user's real-money account) and the send is retried once; a pool
    that cannot serve, or an account that cannot pay, leaves the send
    blocked.  This is what keeps the §4.3 pool/bank loop active under
    sustained traffic. *)

val default_config : n_isps:int -> users_per_isp:int -> config
(** All ISPs compliant, hourly pool checks, no automatic audits,
    10-minute freezes, 100 ms bank links, deliver unpaid mail,
    auto-ack on; reliable bank links and mesh, no partitions, audits
    on a 50% quorum, 5 s initial retry timeout doubling up to a 900 s
    cap. *)

type t

val create : config -> t
val engine : t -> Sim.Engine.t
val config : t -> config
val isp : t -> int -> Isp.t
(** @raise Invalid_argument for a non-compliant index (they have no
    kernel). *)

val federation : t -> Federation.t
(** The member banks and their clearing books. *)

val bank : t -> Bank.t
(** Member bank 0 — the only bank of a default world. *)

val mta : t -> int -> Smtp.Mta.t

(** {1 Observability} *)

val tracer : t -> Obs.Trace.t
(** The tracer every component emits into: [cfg.tracer] when supplied,
    otherwise the world's private one. *)

val metrics : t -> Obs.Metrics.t
(** The registry holding the link/fault counters, mail gauges, engine
    instruments and deferral summary; dump with
    {!Obs.Metrics.to_table}. *)

val check_invariants : ?quiescent:bool -> t -> unit
(** Emit an [obs/checkpoint] event carrying independently-measured
    system totals (Σ ISP e-pennies, banks' outstanding, cheat-minted) for
    the online checkers to compare their event-derived models against.
    [quiescent] (default false) additionally asserts that no paid mail
    is in flight.  Also fired automatically after every completed audit
    and hourly once {!attach_invariants} has run.  No-op while the
    tracer is inert. *)

val attach_invariants : ?honest:bool array -> t -> Obs.Invariant.t list
(** Subscribe the zero-sum, credit-antisymmetry and exactly-once
    checkers (in that order) to the world's tracer and start the hourly
    checkpoint heartbeat.  [honest] overrides the computed mask
    (compliant and not configured to cheat) used to scope the
    antisymmetry checker.  Raises {!Obs.Invariant.Violation} from
    inside the run at the first inconsistent event. *)

val address : t -> isp:int -> user:int -> Smtp.Address.t

(** {1 Sending mail} *)

type send_result =
  | Submitted of [ `Paid | `Free ]
  | Deferred_snapshot  (** Buffered; will be submitted at thaw. *)
  | Failed_down  (** The sender's own ISP is crashed; nothing queued. *)
  | Backpressured
      (** The serving layer refused admission (421: queue full).  Nothing entered the system; a paid
          charge was refunded.  Only possible with [cfg.serving]. *)
  | Rejected of Ledger.block

val send_email :
  t -> from:int * int -> to_:int * int -> ?subject:string ->
  ?spam:bool -> ?in_reply_to:string -> ?body:string -> unit -> send_result
(** Send one message from user [from] to user [to_].  [spam] tags the
    message with a ground-truth label header for measurement only —
    the protocol itself never inspects it (§1.2: "Zmail requires no
    definition of what is and is not spam").  [in_reply_to] threads the
    message under an earlier [Message-Id].
    @raise Invalid_argument, naming the header and before anything is
    charged, if [subject] or [in_reply_to] is not a valid header value
    ({!Smtp.Message.check_header}): a value with CR, LF or NUL, or with
    leading or trailing space. *)

val label : spam:bool -> Smtp.Message.field
(** The ground-truth label field {!send_email} adds,
    [X-Sim-Label: spam] or [X-Sim-Label: ham], built once. *)

(** {1 Mailing lists (§5)} *)

val host_list : t -> isp:int -> user:int -> list_id:string -> Listserv.t
(** Declare user [(isp, user)] a list distributor; the ISP will
    intercept acknowledgments addressed to it.
    @raise Invalid_argument if [list_id] is not a valid header value
    ({!Listserv.create}). *)

val post_to_list : t -> Listserv.t -> body:string -> int
(** Distribute a post to every subscriber (one paid send each).
    Returns the number of expansions actually submitted (those not
    blocked by balance/limit). *)

(** {1 Protocol operations} *)

val trigger_audit : t -> unit
(** Start a §4.4 audit now (requests go over the faulty link with
    retransmission, like periodic audits).  Subject to the half
    quorum: the round may run without partition-severed ISPs or be
    deferred outright.
    @raise Invalid_argument if one is already running. *)

val register_adversary : t -> isp:int -> Adversary.t -> unit
(** Make compliant ISP [isp] Byzantine: install [adv]'s report tamper
    ({!Isp.set_audit_tamper}) and remove the ISP from the computed
    honest mask (its {e reports} are untrustworthy; its money still
    moves honestly — every {!Adversary.behavior} is balance-neutral).
    Call before {!attach_invariants} so the antisymmetry checker
    scopes correctly.
    @raise Invalid_argument for an out-of-range or non-compliant index
    or a doubly-registered ISP. *)

val adversaries : t -> (int * Adversary.t) list
(** Registered adversaries in registration order. *)

val bank_wire_taps : t -> (int * Adversary.Bank_wire.t) list
(** The live bank-wire taps built from [cfg.bank_wire], in
    configuration order — read their tamper counters
    ({!Adversary.Bank_wire.forged} etc.) after a run. *)

val crash_isp : t -> isp:int -> downtime:float -> unit
(** Halt ISP [isp] now and restart it after [downtime] seconds.  While
    down: its MTA answers 421 (peers retry, then bounce — bounced paid
    mail is refunded), bank messages addressed to it are lost, local
    submissions return {!Failed_down}, and any snapshot freeze is
    abandoned.  The crash instant applies a power cut to the kernel's
    storage device: the unflushed WAL tail is lost per the device's
    fault plan.  Recovery replays the surviving write-ahead log
    ({!Isp.recover_wal}); an [Error] there is logged, traced and
    counted in [wal_fallbacks], and the run goes on from the state it
    left.  Ledger, credit records and pending bank requests survive;
    outstanding exchanges re-converge by retransmission.
    @raise Invalid_argument, before any state changes, for a world
    without [cfg.disk], a non-compliant index, a [downtime] that is
    not positive and finite (NaN included), or an ISP that is already
    down. *)

val crash_bank : ?bank:int -> t -> downtime:float -> unit
(** Halt member [bank] (default 0) now and restart it after [downtime]
    seconds.  While down, every ISP-origin message to it and every send
    from it is lost (counted in [lost_bank_down]) and new audit rounds
    are deferred.  The crash instant applies a power cut to the bank's
    device; recovery replays the bank WAL ({!Bank.recover_wal}) —
    rebuilding accounts, the reply cache and the open audit round —
    re-issues the outstanding audit requests, and closes the round if
    every member has collected by then.  The at-least-once retry loops
    on both sides re-drive everything that was in flight, and the
    replayed reply cache keeps re-driven buys/sells exactly-once.  A
    failed replay is handled as in {!crash_isp}.
    @raise Invalid_argument, before any state changes, for a bank out
    of range, a world without [cfg.disk], a [downtime] that is not
    positive and finite (NaN included), or a bank that is already
    down. *)

val isp_up : t -> int -> bool
(** False between {!crash_isp} and the scheduled recovery. *)

val bank_up : ?bank:int -> t -> bool
(** False between {!crash_bank} of member [bank] (default 0) and the
    scheduled recovery. *)

val serve : t -> Serve.Dispatch.t option
(** The live serving-path dispatcher when [cfg.serving] was set —
    read its SLO histograms and queue counters after a run. *)

val audit_results : t -> Bank.audit_result list
(** Completed audits, oldest first. *)

val audit_results_timed : t -> (float * Bank.audit_result) list
(** As {!audit_results}, with the simulated completion time. *)

val run_days : t -> float -> unit
(** Advance simulated time by [days] days (daily resets fire at
    midnight boundaries). *)

val run_until_quiet : t -> unit
(** Drain every pending event (workloads must be finite). *)

(** {1 Workloads} *)

val profile_of : t -> isp:int -> user:int -> Econ.User_model.profile option
(** The behavioural profile assigned by {!attach_user_traffic}; [None]
    before traffic is attached. *)

val attach_user_traffic : t -> ?mix:Econ.User_model.profile list -> unit -> unit
(** Give every user at every ISP a behavioural profile from [mix]
    (default {!Econ.User_model.standard_mix}) and start their Poisson
    send processes (fresh mail plus probabilistic replies). *)

val attach_bulk_sender :
  t -> isp:int -> user:int -> per_day:float -> unit -> unit
(** A bulk mailer at [(isp, user)]: Poisson sends at [per_day] to
    uniformly random users across the world, tagged as spam. *)

(** {1 Measurement} *)

type counters = {
  mutable ham_delivered : int;
  mutable spam_delivered : int;
  mutable unpaid_discarded : int;
  mutable blocked_balance : int;
  mutable blocked_limit : int;
  mutable deferred_sends : int;
  mutable backpressured_sends : int;
      (** Sends refused at serving-path admission ({!Backpressured}). *)
  mutable acks_generated : int;
  mutable limit_warnings : int;
}

val counters : t -> counters

(** Bank-link reliability and crash bookkeeping, complementing the
    per-fault counters of {!Sim.Fault.Mesh.counters}. *)
type link_stats = {
  retransmits : Sim.Stats.Counter.t;
      (** Bank exchanges resent after a timeout. *)
  bank_rejects : Sim.Stats.Counter.t;
      (** ISP-origin messages the bank refused (corruption, forgery,
          out-of-protocol duplicates). *)
  lost_isp_down : Sim.Stats.Counter.t;
      (** Bank-origin messages that arrived at a crashed ISP. *)
  sends_failed_down : Sim.Stats.Counter.t;
      (** User submissions refused because their ISP was down. *)
  crashes : Sim.Stats.Counter.t;
  recoveries : Sim.Stats.Counter.t;
  bounce_refunds : Sim.Stats.Counter.t;
      (** E-pennies refunded out of bounced paid mail. *)
  audits_deferred : Sim.Stats.Counter.t;
      (** Audit rounds skipped because partition-severed ISPs broke
          the half quorum, or because a member bank was down at
          round start. *)
  bank_crashes : Sim.Stats.Counter.t;
  bank_recoveries : Sim.Stats.Counter.t;
  lost_bank_down : Sim.Stats.Counter.t;
      (** Messages lost because the bank was crashed: ISP-origin
          messages that arrived at the down bank plus bank-origin
          sends attempted while down. *)
  wal_fallbacks : Sim.Stats.Counter.t;
      (** Crash recoveries (ISP or bank) whose WAL replay returned
          [Error].  Zero in every E23 grid cell — the fault model never
          damages acknowledged bytes. *)
}

val link_stats : t -> link_stats

val mesh : t -> Sim.Fault.Mesh.t
(** The physical mesh fault layer — the only fault surface mail and
    bank traffic cross (for its counters and {!Sim.Fault.Mesh.severed}
    probes); nodes [n_isps …] are the member banks. *)

val deferral_delay : t -> Sim.Stats.Summary.t
(** Seconds each snapshot-deferred message waited before submission. *)

val conservation_holds : t -> bool
(** Σ compliant-ISP e-pennies − initial issue = the banks' total
    outstanding ({!Federation.total_outstanding}) —
    false only if the implementation leaked or minted money.  Note:
    transiently false while paid mail or bank replies are in flight;
    check at quiescence or between bursts. *)

val epenny_residue : t -> Epenny.amount
(** Σ compliant-ISP e-pennies − initial issue − banks' outstanding.
    Zero when {!conservation_holds}; at quiescence it equals
    {!cheat_minted} exactly — cheat-minted pennies are the only
    un-backed money in the system, whatever the link did. *)

val cheat_minted : t -> Epenny.amount
(** Total e-pennies minted by [Fake_receives] cheats across all ISPs. *)

val balance_drift : t -> isp:int -> user:int -> int
(** Current balance minus initial balance for one user. *)

(** {1 State capture} *)

val capture : t -> (string * string) list
(** The whole simulated world as named {!Persist.Codec} sections —
    ["engine"] (clock, counters, pending-event metadata, root RNG),
    ["rng"] (the world's own stream), ["mesh"], ["bank"],
    one ["isp/<i>"] per compliant kernel, ["world"] (mail counters,
    audit history, crash state, link counters, adversary and bank-wire
    tap state, deferred-send queue times) and ["trace"] (emission
    counters).
    Feed to {!Persist.Snapshot.v}.

    Event callbacks are closures and are deliberately not serialized:
    a snapshot is {e verified} against a world rebuilt by deterministic
    replay ({!Harness.Checkpoint}), not deserialized into one.  Two
    worlds built from the same seed and driven to the same time
    capture byte-identically — that equality is the resume-determinism
    guarantee, and any mismatch is reported per section by
    {!Persist.Snapshot.diff}.
    @raise Invalid_argument for a world on more than one bank. *)
