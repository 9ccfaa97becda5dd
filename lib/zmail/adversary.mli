(** Byzantine ISP behaviors for the §4.4 robustness argument.

    An adversary is a {e report} tamper: installed via
    {!Isp.set_audit_tamper}, it rewrites the credit row the ISP hands
    the bank at thaw and touches nothing else.  Money, user balances
    and the bank's outstanding liability are exactly those of an honest
    run — every behavior is balance-neutral by construction — so the
    question an experiment answers is purely whether the audit
    {e detects} the lie:

    - {!Understate_owed}: every pair the adversary owes fails its
      antisymmetry check, implicating the adversary against each
      creditor peer (and convicting it outright when creditors form a
      strict majority).
    - {!Replay_stale}: the stale row disagrees with every peer whose
      pair flow changed between rounds — detected at the first audit
      after the tamper begins.
    - {!Drop_crosscheck}: a single broken pair.  Inherently ambiguous
      under §4.4 — adversary and victim are both implicated for
      investigation — but the strict-majority rule never convicts the
      victim, and the behavior gains the adversary nothing.
    - {!Collude}: a fixed per-peer adjustment, coordinated with
      partners ({!collusion_pair}, {!collusion_ring}) so the colluders'
      own pairs stay antisymmetric while an honest victim's star of
      violations balances — invisible to pairwise attribution, which
      frames the victim.  Caught by the cycle-sum detector
      ([Audit.Cycle]), which convicts the ring and clears the victim.

    E18 measures the first three across the mesh-fault grid; E21
    measures collusion at scale. *)

type behavior =
  | Understate_owed of int
      (** Raise every strictly negative (owed) entry of the reported
          row by up to this many credits, capping at zero. *)
  | Replay_stale
      (** Report the previous round's true row instead of the current
          one (the first round, with nothing to replay, is honest). *)
  | Drop_crosscheck of int
      (** Drop the reported entry for this one peer. *)
  | Collude of { adjust : (int * int) list }
      (** Add each [(peer, delta)] to the reported row (zeros dropped
          from the canonical form).  The lie is fixed per round; the
          coordination lives in how partners' adjustments are chosen —
          use the plan constructors below. *)

type t

val create : behavior -> t
(** @raise Invalid_argument on a non-positive understatement, a
    negative peer index, or a degenerate [Collude] adjustment (empty,
    zero delta, or duplicate peers). *)

val behavior : t -> behavior

val tamper : t -> seq:int -> (int * int) array -> (int * int) array
(** The function to install with {!Isp.set_audit_tamper}.  Rows are
    sparse [(peer, count)] pairs sorted by peer; every branch returns
    that canonical form.  Never mutates its input row. *)

val collusion_pair :
  a:int -> b:int -> victim:int -> delta:int -> ?fabricate:int -> unit ->
  (int * behavior) list
(** The minimal §4.4-evading collusion: [a] overstates against [victim]
    by [delta], [b] understates by the same amount (the victim's star
    of violations balances), and the pair fabricates a mutual
    [+fabricate]/[-fabricate] claim so their own check passes while
    leaving the consistent non-silent edge the cycle detector needs.
    Returns [(isp, behavior)] assignments for {!World.register_adversary}.
    @raise Invalid_argument on overlapping participants or zero
    [delta]/[fabricate]. *)

val collusion_ring :
  members:int list -> victims:int list -> delta:int -> ?fabricate:int ->
  unit -> (int * behavior) list
(** A ring of [k >= 2] members rotating lies across [k] victims:
    member [m_i] overstates against victim [v_i] by magnitude
    [a_i = delta + i] and understates against [v_(i-1)] by [a_(i-1)];
    adjacent members fabricate their coordination edge.  The
    magnitudes are distinct on purpose: each victim's star still
    balances ([+a_i] from [m_i], [-a_i] from [m_(i+1)]) but no
    member's own lies cancel, so only victim-centered rings sum to
    zero and attribution cannot flip (DESIGN.md §13).  Each victim
    yields one minimal cycle [{m_i, m_(i+1)}], so the detector
    convicts every member.  [members] and [victims] must be disjoint
    and distinct, with one victim per member.
    @raise Invalid_argument otherwise. *)

val tampered : t -> int
(** Reports actually altered so far (a tamper that happens to be the
    identity — nothing owed, first replay round, entry already zero —
    does not count). *)

val rounds : t -> int
(** Thaws this adversary has seen. *)

val name : behavior -> string
(** Short label for tables, e.g. ["understate(3)"]. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** [Replay_stale]'s remembered row is real protocol state (the next
    lie depends on it), so adversaries ride in world captures; the
    counters come along so resumed tables match byte-for-byte. *)

(** Bank-{e wire} tampering, as opposed to the report tampering above:
    a [Bank_wire.t] owns one ISP-to-bank or bank-to-bank link and may
    forge, replay, reorder or selectively drop the traffic crossing
    it.  It never holds a key, so every behavior is an argument about
    the transport hardening: forgeries fail the MAC/signature check,
    replays are absorbed by the reply cache and nonce/xfer-id dedup,
    reordering and drops are recovered by retry/backoff.  E19 measures
    all four across the fault grid. *)
module Bank_wire : sig
  type kind = Buy_msg | Sell_msg | Audit_reply_msg | Clearing_msg
  (** What is crossing the link; [Drop_selective] filters on it. *)

  val kind_name : kind -> string

  type wire_behavior =
    | Forge_garbage of float
        (** With this probability, inject a {!Toycrypto.Seal.forge}d
            envelope (or a signature-corrupted copy, on a signed link)
            alongside the real message. *)
    | Replay_captured of float
        (** Capture passing traffic and, with this probability,
            re-deliver a previously captured message. *)
    | Reorder of float * float
        (** [(p, dmax)]: with probability [p], hold the message back by
            a uniform delay in [(0, dmax)] seconds so it arrives late
            and out of order. *)
    | Drop_selective of kind * float
        (** Drop messages of one kind with this probability (must be
            [< 1] so retransmission can recover). *)

  type t

  val create : Sim.Rng.t -> wire_behavior -> t
  (** The tap draws every coin from [rng] — give each tap its own
      stream so faults never perturb workload randomness.
      @raise Invalid_argument on a probability outside [\[0,1\]] (or
      [\[0,1)] for [Drop_selective]) or a non-positive delay. *)

  val behavior : t -> wire_behavior

  type verdict =
    | Pass  (** Deliver unchanged. *)
    | Drop  (** Swallow the message. *)
    | Delay of float  (** Deliver after this many seconds. *)
    | Inject of Toycrypto.Seal.sealed
        (** Deliver the original {e and} this extra envelope. *)

  val on_sealed : t -> kind:kind -> Toycrypto.Seal.sealed -> verdict
  (** The fate of one sealed (ISP → bank) message crossing the link. *)

  type signed_verdict =
    | S_pass
    | S_drop
    | S_delay of float
    | S_inject of Wire.signed

  val on_signed : t -> kind:kind -> Wire.signed -> signed_verdict
  (** Same, for signed traffic (bank → bank clearing): forgery becomes
      a corrupted signature, replay re-delivers a captured transfer. *)

  val name : wire_behavior -> string
  (** Short label for tables, e.g. ["drop-buy(0.50)"]. *)

  val forged : t -> int
  val replayed : t -> int
  val delayed : t -> int
  val dropped : t -> int
  val passed : t -> int

  val encode_state : Persist.Codec.W.t -> t -> unit
  val restore_state : Persist.Codec.R.t -> t -> unit
  (** The RNG stream and the capture buffers are live protocol state
      (the next verdict depends on both), so taps ride in world
      captures for resume determinism. *)
end
