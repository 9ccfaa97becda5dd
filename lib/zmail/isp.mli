(** The compliant-ISP protocol kernel: §4.1 zero-sum transfer, §4.2
    user transactions, §4.3 bank transactions, §4.4 snapshot replies.

    This module is pure protocol state — it knows nothing about SMTP or
    the event loop.  {!World} drives it from MTA hooks and timers; unit
    tests and the {!Ap_spec} explorer drive it directly.

    One deliberate deviation from the paper's literal pseudocode is
    recorded here because E11 measures it: the paper accepts a
    [buyreply] whenever its nonce equals [ns1], but since [ns1] only
    changes on the {e next} buy, a {e duplicated} reply would be
    applied twice.  With [replay_hardening] (the default) a reply is
    accepted only while a matching request is outstanding; constructing
    a kernel with [~replay_hardening:false] reproduces the paper's
    literal — and replay-unsafe — behaviour.

    {2 Durability}

    A kernel is durable only with a {!Sim.Disk} attached at {!create};
    without one it logs nothing and cannot recover.  The log is a
    {!Journal} (checkpoints, framing, compaction, recovery): every
    billing-relevant transition appends a record of its inputs under
    group commit — money-moving and message-emitting transitions flush
    immediately, counter-only ones ride until [wal_group] accumulate —
    and {!recover_wal} replays them through the same mutation code. *)

type cheat =
  | Honest
  | Fake_receives of int
      (** Each day the ISP invents this many receives from each
          compliant peer, crediting its own users with unbacked
          e-pennies (the §4.4 fraud the audit exists to catch). *)
  | Unreported_sends of float
      (** Probability of not recording [credit+1] on a paid send (the
          user is still charged; the ISP pockets the e-penny). *)

type config = {
  index : int;  (** This ISP's id in [0, n_isps). *)
  n_isps : int;
  n_users : int;
  compliant : bool array;  (** The bank-published compliance map. *)
  bank_public : Toycrypto.Rsa.public;
  initial_balance : Epenny.amount;
  initial_account : int;
  daily_limit : int;
  minavail : Epenny.amount;
  maxavail : Epenny.amount;
  initial_avail : Epenny.amount;
  buy_amount : Epenny.amount;  (** The paper's [buyvalue]. *)
  replay_hardening : bool;
  cheat : cheat;
}

val default_config :
  index:int -> n_isps:int -> n_users:int -> compliant:bool array ->
  bank_public:Toycrypto.Rsa.public -> config
(** Sensible defaults: balance 100, account 1000, limit 500, pool
    bounds 200/5000, initial pool 1000, buy 1000, hardened, honest.
    A sell brings the pool back to [(minavail + maxavail) / 2]. *)

type t

val create : ?disk:Sim.Disk.t -> ?wal_group:int -> Sim.Rng.t -> config -> t
(** [create ?disk ?wal_group rng config].  With [disk] the kernel logs
    every billing-relevant transition to it as a write-ahead log and
    immediately writes the initial checkpoint record, so the log is
    never without a recovery baseline; [wal_group] (default 8) is the
    group-commit window for lazy records.  Without [disk] the kernel
    logs nothing, pays no per-operation overhead and cannot
    recover.
    @raise Invalid_argument on an out-of-range index, a compliance map
    of the wrong size, a non-compliant own index, an inverted pool
    band, or [wal_group < 1]. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Emit [isp/...] protocol events (charge/settle/refund, buy/sell
    spans and applies, freeze/thaw, cheat mints) into the tracer, and
    wire the kernel's credit vector to it too.  Default:
    {!Obs.Trace.none}. *)

val index : t -> int
val ledger : t -> Ledger.t
val credit_vector : t -> int array
(** Snapshot of the current credit array. *)

val frozen : t -> bool
(** [true] while a §4.4 snapshot freeze is in force ([cansend =
    false]). *)

val frozen_for : t -> int option
(** The audit round the current freeze answers, or [None] when not
    frozen.  Usually equal to {!audit_seq}, but larger when the bank
    ran rounds without this ISP (it was partition-severed) and the
    next request made the kernel jump forward. *)

val pending_buy_nonce : t -> int64 option
(** Nonce of the outstanding §4.3 buy request, if any — the handle a
    retransmission layer polls to know when to stop resending. *)

val pending_sell_nonce : t -> int64 option
val audit_seq : t -> int
(** The next audit sequence number this kernel will accept. *)

val durable_image : t -> string
(** The kernel's complete protocol state (ledger, credit vectors, audit
    sequence, pending buy/sell records, RNG/nonce streams, cheat-minted
    total),
    encoded: a WAL checkpoint record is the checkpoint tag byte
    followed by exactly these bytes.  The storage device is not part
    of it. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** Snapshot capture and in-place restore of the full kernel state
    (the tracer binding and the identity-bearing [config] excepted),
    including — when a disk is attached — the storage device and the
    WAL bookkeeping, so a resumed run re-creates crash/recovery
    byte-identically.  Restore raises [Persist.Codec.Corrupt] on
    malformed input or a shape mismatch against the live kernel. *)

(** {1 Mail path (§4.1)} *)

type send_outcome =
  | Sent_paid  (** Charged one e-penny (credit bumped if remote compliant). *)
  | Sent_free  (** Destination ISP non-compliant: no charge, no record. *)
  | Deferred  (** Snapshot freeze: the caller must retry after {!thaw}. *)
  | Blocked of Ledger.block

val charge_send : t -> sender:int -> dest_isp:int -> send_outcome
(** Apply the sender-side action for one message from [sender] to a
    user of [dest_isp] (which may be this ISP). *)

val accept_delivery : t -> from_isp:int -> rcpt:int -> [ `Paid | `Unpaid ]
(** Apply the receiver-side action: from a compliant ISP the recipient
    earns one e-penny (and the credit vector records it when remote);
    from a non-compliant ISP nothing is recorded and the caller's
    delivery policy decides the message's fate.  Equivalent to
    {!accept_delivery_stamped} with no epoch stamp. *)

val accept_delivery_stamped :
  t -> sender_epoch:int option -> from_isp:int -> rcpt:int -> [ `Paid | `Unpaid ]
(** Like {!accept_delivery}, but [sender_epoch] is the audit sequence
    number the message was stamped with when the sender charged it.
    When it is newer than this kernel's own [seq] — the sender already
    snapshotted for an audit round this kernel has yet to answer,
    which happens when a crash delays its snapshot past its peers' —
    the receive is buffered under the stamp's epoch
    ({!Credit.record_receive_early}), keeping every period's §4.4
    antisymmetry intact.  Money moves immediately regardless. *)

val early_receives : t -> int
(** Receives currently buffered for future billing periods. *)

val refund_send : t -> sender:int -> dest_isp:int -> unit
(** Undo one {!charge_send} whose message bounced before delivery:
    restore the sender's e-penny and cancel the credit recorded toward
    [dest_isp] (when remote and compliant), so the e-penny in the dead
    letter is not destroyed and audits stay clean.  The daily [sent]
    count is not undone. *)

(** {1 User path (§4.2)} *)

val user_topup :
  t -> user:int -> amount:Epenny.amount -> (unit, string) result
(** Buy [amount] e-pennies from the ISP's pool onto [user]'s balance
    (the §4.2 user transaction), routed through the kernel so the
    transition lands in the write-ahead log like every other money
    movement.  Fails (and logs nothing) when the pool cannot cover the
    purchase. *)

(** {1 Bank path (§4.3)} *)

val pool_action : t -> Toycrypto.Seal.sealed option
(** If [avail] has crossed a threshold and no request is outstanding,
    produce the sealed [buy]/[sell] to send to the bank. *)

type reaction =
  | No_reaction
  | Start_snapshot_timer
      (** A valid audit request arrived: the caller must schedule
          {!thaw} after the freeze interval (the paper's 10 minutes). *)

val on_bank_message : t -> Wire.signed -> reaction
(** Handle a bank-origin message: verify the signature, then apply
    [buyreply]/[sellreply]/[request] semantics.  Invalid signatures and
    replays are ignored.  An audit request for a round [>= audit_seq]
    freezes the kernel; a request newer than [audit_seq] additionally
    jumps the kernel forward over the rounds it missed while
    unreachable, so the next {!thaw} answers the requested round with
    the cumulative credit row covering the gap. *)

val thaw : t -> Toycrypto.Seal.sealed
(** End the snapshot freeze: emit the sealed [Audit_reply] carrying the
    sparse credit row for the frozen-for round ({!Credit.report_upto}),
    close the answered period(s) ({!Credit.reset_upto}), advance [seq]
    past the answered round, and lift [cansend].
    @raise Invalid_argument if no freeze is in force. *)

val set_audit_tamper :
  t -> (seq:int -> (int * int) array -> (int * int) array) option -> unit
(** Install a Byzantine report rewriter: the function receives the
    audit round and the true sparse credit row ([(peer, count)] sorted
    by peer) at {!thaw} and returns the row actually reported to the
    bank.  Only the {e report} is altered —
    the kernel's real credit state, balances and e-penny flows are
    untouched, which is what makes every such behavior balance-neutral
    by construction ({!Adversary}).  Wiring, not state: not captured in
    snapshots; whoever rebuilds the world reinstalls it. *)

val set_amend_hook : t -> (seq:int -> Toycrypto.Seal.sealed -> bool) option -> unit
(** Install the transport for amended audit replies.  When a paid
    message stamped with the last answered round arrives after our
    reply for that round already went out (the sender's audit request
    was delayed on a faulty bank link, so it charged the message
    before freezing), the receive is folded into the retained report
    row and the hook is called with the round and the sealed
    replacement [Audit_reply] — the world re-sends it while the bank's
    round is still open, restoring pairwise antisymmetry for the round
    the sender booked the message in.  The hook returns whether it
    accepted the amendment for transport; [false] (the bank's round
    already closed — e.g. it finished with this kernel's peer group
    absent during a partition) reverts the fold and books the receive
    into the open period, since an amendment the bank will never read
    would erase the receive from the books.  Without the hook (or for
    kernels with a tamper installed) the receive likewise falls back
    to the open period, reproducing the pre-amendment transient.
    Wiring, not state: not captured in snapshots; whoever rebuilds the
    world reinstalls it. *)

(** {1 Crash and WAL recovery}

    The kernel's {!Journal}; without a disk there is no device, the
    counts stay zero and {!recover_wal} returns [Error]. *)

val disk : t -> Sim.Disk.t option

val power_cut : t -> unit
(** {!Journal.power_cut}.  The in-memory state is untouched: the caller
    models the crash by following up with {!recover_wal}. *)

val recover_wal : t -> (unit, string) result
(** {!Journal.recover}: restore the log's checkpoint and replay the
    delta records after it.  Before the post-recovery checkpoint the
    volatile §4.4 freeze is lifted; the bank's request retransmission
    restarts it. *)

val wal_appended : t -> int
val wal_replayed : t -> int
(** {!Journal.appended} and {!Journal.replayed}. *)

(** {1 Housekeeping} *)

val end_of_day : t -> unit
(** Reset the [sent] counters; applies any configured per-period
    cheating. *)

val limit_warnings : t -> int list
(** Users who hit their daily limit since the last call (the §5 zombie
    warning); clears the pending set. *)

val total_epennies : t -> Epenny.amount
(** User balances plus pool — the conserved quantity. *)

val stats_cheat_minted : t -> Epenny.amount
(** Unbacked e-pennies created by a {!Fake_receives} cheat so far —
    exactly the amount by which this kernel breaks the global zero-sum
    invariant (experiments subtract it to verify conservation in
    cheater worlds). *)
