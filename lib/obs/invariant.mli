(** Online invariant checkers.

    Each checker subscribes to a {!Trace.t} and maintains a small
    incremental model of the protocol from the event stream; the moment
    an event contradicts an invariant the checker raises {!Violation}
    carrying the offending event and the most recent ring-buffer
    context, so a chaos run fails at the first inconsistent action
    instead of producing a wrong number at the end.

    The checkers match {!Trace.payload} constructors (DESIGN.md §7
    tabulates which kinds each one reads), so evaluating an event reads
    record fields; only storing something new (a first credit pair, an
    applied nonce) allocates:

    - {b zero-sum} (§1.2, E2): replays every money movement
      ([Isp_charge], [Isp_settle], [Isp_refund], [Isp_buy_apply],
      [Isp_sell_apply], [Isp_mint]) into an expected system total and
      compares it against the measured total carried by each
      [Obs_checkpoint].  At a quiescent checkpoint it also requires
      zero e-pennies in flight.
    - {b credit antisymmetry} (§4.4, E3/E4): tracks cumulative
      sends/receives per ordered pair of {e honest} ISPs from
      [Credit_send], the three [Credit_recv*] kinds and
      [Credit_cancel]; a receive or cancellation without a matching
      send — a double credit — trips immediately.  Pairs involving a
      cheating ISP are excluded: their books are {e supposed} to
      disagree (that is what the audit detects).  A quiescent
      [Obs_checkpoint] requires every pair settled.
    - {b exactly-once} (E16): every [Bank_buy]/[Bank_sell] (the
      non-replay kinds) and every [Isp_buy_apply]/[Isp_sell_apply]
      must occur at most once per (ISP, nonce) despite duplication and
      retransmission on the bank link.
    - {b cycle-residue} (§4.4 collusion, E21): the closing
      [Bank_audit_end] must account for its lied volume consistently
      between rings and residue, and never convict an honest ISP.

    {!checks} counts one evaluation per checkpoint (zero-sum; and
    antisymmetry when quiescent), per honest-pair credit event, per
    exactly-once kind and per closing audit. *)

type violation = {
  time : float;  (** simulated time of the offending event *)
  check : string;  (** which checker fired *)
  detail : string;
  event : Trace.event;  (** the event that violated the invariant *)
  context : Trace.event list;
      (** most recent ring-buffer events, oldest first (empty when the
          tracer records nothing) *)
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit
(** Multi-line report: the verdict, then the context dump. *)

type t
(** A live checker handle. *)

val name : t -> string

val checks : t -> int
(** Number of invariant evaluations performed so far — evidence the
    checker actually ran. *)

val detach : t -> unit
(** Unsubscribe the checker from its tracer.  Needed when sequential
    scenarios share one tracer: a checker left attached would observe
    the next scenario's events against a stale model. *)

val attach_zero_sum : ?context:int -> Trace.t -> initial:int -> t
(** [attach_zero_sum tr ~initial] starts the conservation checker with
    the system's initial e-penny total.  [context] bounds the events
    quoted in a violation (default 32). *)

val attach_antisymmetry : ?context:int -> Trace.t -> honest:bool array -> t
(** [honest.(i)] marks ISPs whose books must stay consistent —
    compliant, non-cheating kernels.  Out-of-range actors are treated
    as dishonest. *)

val attach_exactly_once : ?context:int -> Trace.t -> t

val attach_cycle_residue : ?context:int -> Trace.t -> honest:bool array -> t
(** Audit-attribution accounting (§4.4 collusion).  Consumes the bank's
    closing [Bank_audit_end] span events and fails fast when the cycle
    detector's books stop adding up — ring volume exceeding the round's
    lied volume, rings without members, an ISP both cleared and
    ring-convicted — or when a {e ring} conviction lands on an ISP
    marked honest, the one outcome ring attribution must never produce
    (strict-majority offenders are exempt: in-flight traffic at a
    snapshot can transiently implicate honest ISPs, §4.4's pre-existing
    ambiguity).  [honest] as in {!attach_antisymmetry}. *)
