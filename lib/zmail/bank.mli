(** The bank (§4.3–§4.4), alone or as one member of a {!Federation}:
    ISP real-money accounts, e-penny issue and buy-back, and the
    periodic credit audit.

    Note that no inter-ISP settlement is needed: e-pennies migrate
    between ISPs inside email, and the backing money flows through the
    bank automatically when pools are topped up ([buy]) or skimmed
    ([sell]).  {!outstanding_epennies} (sold minus bought back) is the
    bank's liability and equals the sum of every compliant ISP's
    {!Isp.total_epennies} — the global zero-sum invariant the tests
    check.  The credit audit exists purely to {e detect} ISPs that
    mint e-pennies fraudulently.

    The bank also keeps a per-(ISP, nonce) reply cache so that a
    {e duplicated} [buy]/[sell] — an attacker's replay or an honest
    retransmission over a lossy link — cannot debit an ISP twice: the
    duplicate is answered with the original reply, giving exactly-once
    effect over an at-least-once transport ([replay_hardening], on by
    default; E11 ablates it). *)

type config = {
  n_isps : int;
  compliant : bool array;
  initial_account : int;  (** Real pennies deposited by each ISP. *)
  replay_hardening : bool;
}

val default_config : n_isps:int -> compliant:bool array -> config
(** Accounts of 1,000,000 real pennies; hardened. *)

type reject =
  | Unknown_isp  (** Sender index out of range. *)
  | Non_compliant  (** Sender is not in the compliant set. *)
  | Unreadable
      (** Unseal or decode failed: forged, bit-flipped, cross-signed
          (sealed to some other key) or garbage bytes. *)
  | Foreign_bank
      (** Sealed to another member bank's key (the recipient id names a
          real member that is not the sender's home bank).  Decided by
          {!Federation.on_isp_message} before the envelope reaches the
          home bank; a bank alone never returns it. *)
  | Wrong_state
      (** An audit reply when no audit is running, for a stale round,
          or through the wrong entry point. *)
  | Wrong_direction
      (** A bank-origin payload (replies, audit requests, clearing
          transfers) arriving on the ISP-to-bank path. *)

val reject_to_string : reject -> string

type t

val create : ?disk:Sim.Disk.t -> Sim.Rng.t -> config -> t
(** Generates the bank keypair from [rng].  With [disk] the bank keeps
    a write-ahead log on it (a {!Journal} in which every record
    flushes): every incoming ISP message, audit-round start and request
    re-issue is logged (inputs, not outcomes — the bank's message path
    is deterministic, so replay rebuilds the reply cache and audit
    state byte-identically).  A completed audit round checkpoints the
    log instead, so completed rounds never replay.  Without [disk] the
    bank logs nothing, pays nothing per operation and cannot
    recover. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Emit [bank/...] trace events (buy/sell with a replay flag, audit
    spans and replies, rejects).  Default: {!Obs.Trace.none}. *)

val public_key : t -> Toycrypto.Rsa.public

val sign : t -> Wire.payload -> Wire.signed
(** Sign a bank-origin payload with this bank's key.  Counts nothing
    and logs nothing: the federation signs its clearing messages with
    its members' keys here. *)

val account_balance : t -> isp:int -> int
val outstanding_epennies : t -> Epenny.amount

type audit_result = {
  seq : int;
  violations : Credit.Audit.violation list;
  suspects : int list;
      (** ISPs violating with a strict majority of their possible
          peers — cheaters disagree with (nearly) everyone, honest
          ISPs only with the cheaters.  When no ISP crosses the
          majority threshold, everyone implicated is reported for
          further investigation (§4.4) — minus anyone the cycle
          detector cleared, plus every ring member it convicted. *)
  convicted : int list;
      (** Positive convictions only: strict-majority offenders plus
          cycle-ring members.  A subset of [suspects]; the rest of
          [suspects] is investigation, never conviction — the
          distinction E21's zero-honest-convictions claim rests on. *)
  rings : Audit.Cycle.ring list;
      (** Collusion rings the cycle-sum detector found this round:
          accuser sets whose discrepancies balance at an honest center
          and who are linked by consistent non-silent claims. *)
  cleared : int list;
      (** Ring centers — honest third parties the pairwise check would
          have framed — removed from [suspects]. *)
  absent : int list;
      (** Compliant ISPs the round ran without because they were
          unreachable at round start.  Unreachable is not guilty: they
          are never suspects, their rows are zero, and the pair checks
          involving them are skipped this round.  What their reporting
          peers claimed against them is carried forward and reconciled
          against the cumulative row they report after the partition
          heals. *)
}

type response =
  | Reply of Wire.signed  (** Send this back to the originating ISP. *)
  | Audit_progress  (** Audit reply stored; more outstanding. *)
  | Audit_complete of audit_result
  | Rejected of reject
      (** Forgery, wrong state, or garbage — see {!reject}.  A
          duplicate buy/sell is not rejected: it gets the cached
          reply.
          Each rejection increments the matching per-reason counter in
          {!stats}. *)

val on_isp_message :
  ?close:(unit -> audit_result option) ->
  t -> from_isp:int -> Toycrypto.Seal.sealed -> response
(** Handle a sealed ISP-origin message.  A message that leaves this
    bank's round with no reply outstanding calls [close]: by default
    [close_round [| t |]]; a federation's closes every member's round
    once all have collected, or returns [None] and this bank's round
    stays open, still accepting amended replies. *)

val start_audit : ?except:int list -> t -> (int * Wire.signed) list
(** Begin a §4.4 audit: returns the signed request for every compliant
    ISP not listed in [except] (default none).  Excluded ISPs are
    recorded as the round's [absent] set — the quorum path for
    partition-severed ISPs: the round completes without them and the
    carry matrix reconciles their later cumulative report against what
    the reporters claimed this round.  [start_round ?except [| t |]].

    The carry works across the members of a federation
    ({!start_round}, {!close_round}).  What a reporter claimed against
    an absentee is carried at the {e reporter's} home member, whoever
    the absentee's home is.  At the close every member feeds its whole
    carry into the shared check, so the absentee's cumulative row
    reconciles against all its peers' claims at once, and every member
    then clears the carried claims against ISPs that reported.
    @raise Invalid_argument if an audit is already in progress, or if
    [except] covers every compliant ISP (defer the round instead). *)

val start_round : ?except:int list -> t array -> (int * Wire.signed) list
(** Open a round at every member for the compliant ISPs it audits
    (requests signed by each ISP's home member; a member may await
    nobody).  One [bank/audit] span opens, on the first member.
    @raise Invalid_argument if a member's audit is in progress, or if
    [except] covers every compliant ISP of every member. *)

val audit_collected : t -> bool
(** A round is open and no reply is outstanding. *)

val close_round :
  ?rewrite:(member:int -> isp:int -> (int * int) array -> (int * int) array) ->
  t array -> audit_result
(** Close every member's collected round at once: all rows and
    carries feed one {!Audit.Verify} pass and the verdict (offenders,
    {!Audit.Cycle} rings, suspects) runs once, closing the first
    member's span.  [rewrite ~member ~isp row] replaces the row
    [member] collected from [isp] before it is checked or carried (a
    Byzantine member's lie).  Every member rolls its carry forward,
    advances its sequence number and checkpoints its log.
    @raise Invalid_argument if a member is not {!audit_collected}. *)

val audit_in_progress : t -> bool

val audit_seq : t -> int
(** The sequence number of the open round, or of the next one when
    none is open. *)

val awaits_reply : t -> seq:int -> isp:int -> bool
(** Round [seq] is open and [isp]'s reply is still outstanding: the
    predicate a retransmission layer polls to decide whether an audit
    request or reply still needs resending.  Allocates nothing.
    [isp] must be in range. *)

val resend_audit_request : t -> isp:int -> Wire.signed option
(** Re-issue the in-progress round's signed request iff [isp]'s reply
    is still outstanding.  The crash-recovery handshake: a restarting
    ISP fetches pending protocol state from the bank before reopening,
    so it freezes for the still-open round immediately instead of
    sending mail its already-thawed peers would book one audit epoch
    ahead. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** Snapshot capture and in-place restore of accounts, the reply cache
    (sorted by (isp, nonce) so equal banks encode identically), the
    partition carry matrix, the audit state and all counters — plus,
    when a disk is attached, the storage device and WAL bookkeeping.
    The RSA keypair is {e not} captured:
    it is derived deterministically from the creation RNG, so the
    world-rebuild preceding a restore regenerates identical keys.
    Restore raises [Persist.Codec.Corrupt] on malformed input or a
    shape mismatch. *)

(** {1 Crash and WAL recovery}

    The bank's {!Journal}; without a disk there is no device, the
    counts stay zero and {!recover_wal} returns [Error]. *)

val durable_image : t -> string
(** The bank's protocol state (everything {!encode_state} captures but
    the storage device and WAL bookkeeping), encoded: a WAL checkpoint
    record is the checkpoint tag byte followed by exactly these bytes. *)

val disk : t -> Sim.Disk.t option

val power_cut : t -> unit
(** {!Journal.power_cut}.  The in-memory state is untouched: the caller
    models the crash by following up with {!recover_wal}. *)

val recover_wal : t -> (unit, string) result
(** {!Journal.recover}: restore the log's checkpoint and replay the
    logged messages through the normal handlers.  The reply cache
    rebuilds exactly, so an ISP whose request was applied before the
    crash but whose reply was lost in flight is answered from the
    cache on retransmission — the crash cannot double-bill. *)

val wal_appended : t -> int
val wal_replayed : t -> int
(** {!Journal.appended} and {!Journal.replayed}. *)

type stats = {
  buys : int;  (** Accepted buy transactions. *)
  buys_rejected : int;  (** Insufficient account. *)
  sells : int;
  replays_dropped : int;
      (** Duplicate buy/sell requests answered from the reply cache
          instead of being re-applied. *)
  audits_completed : int;
  messages_in : int;
  messages_out : int;
  rejects : (reject * int) list;
      (** Messages turned away, one entry per {!reject} reason in
          declaration order — forgery ([Unreadable]) is distinguishable
          from wrong-state traffic. *)
}

val stats : t -> stats
