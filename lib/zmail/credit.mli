(** Per-peer credit vectors and the §4.4 consistency check.

    Each compliant ISP [i] keeps a per-peer count: incremented when [i]
    sends an email to compliant ISP [j], decremented when [i] receives
    one from [j].  After quiescence, honesty implies the antisymmetry
    [credit_i(j) + credit_j(i) = 0] for every pair; any violation
    implicates at least one of the two ISPs.

    The vector is backed by a sparse row ({!Audit.Row}): storage and
    reporting cost scale with the ISP's actual traffic partners, not
    with the world size, which is what makes 10^4-ISP audits
    representable.  The dense [int array] view ({!snapshot}) is
    retained for small-world tests and the federation path; the
    serving path reports sparsely via {!report_upto}. *)

type t
(** A mutable credit vector over [n] peers. *)

val create : n:int -> t
val get : t -> int -> int

val set_tracer : t -> owner:int -> Obs.Trace.t -> unit
(** Emit every vector update as a [credit/...] trace event, with
    [owner] (this vector's ISP index) as the actor.  The default is
    {!Obs.Trace.none} (no emission). *)

val record_send : t -> peer:int -> unit
(** [credit.(peer) <- credit.(peer) + 1]. *)

val record_receive : t -> peer:int -> unit
(** [credit.(peer) <- credit.(peer) - 1]. *)

val cancel_send : t -> peer:int -> unit
(** Undo one {!record_send} whose message bounced before delivery.
    Arithmetically identical to {!record_receive} but traced as a
    [credit/cancel] event: a refund is the retraction of a send, not a
    delivery, and the online antisymmetry checker accounts for the two
    differently. *)

val record_receive_early : t -> epoch:int -> peer:int -> unit
(** Book a receive into the {e future} billing period [epoch]: the
    message's payment stamp carries an audit epoch newer than ours,
    i.e. the sender already snapshotted and reset while we have not
    (possible when a crash or partition delays our snapshot past our
    peers' — by one round, or by several).  Counting it in the current
    period would break antisymmetry against the sender's
    already-reported row; buffering it under the stamp's epoch keeps
    every period consistent (the Chandy-Lamport rule for messages
    crossing the marker, generalized to multi-round lag). *)

val amend_receive :
  t -> epoch:int -> peer:int -> deliver:((int * int) array -> bool) -> bool
(** The late mirror of {!record_receive_early}: book a receive stamped
    with the round we already answered.  The sender had not yet frozen
    for round [epoch] when it charged the message (its audit request
    was delayed — dropped and retransmitted on a faulty bank link), so
    it booked the send into its round-[epoch] report while our reply
    for that round has already gone out without the receive.  Booking
    it into the open period instead would make rounds [epoch] and
    [epoch+1] each one-sided (equal and opposite transient §4.4
    violations) — and the majority rule can convert the first into a
    false conviction of an honest ISP.  If [epoch] matches the
    retained last-answered round, the receive is folded into that
    retained row and [deliver] is called with the amended sparse row
    so the caller can re-send its audit reply.  The fold commits only
    if [deliver] returns [true] (the bank's round is still open and
    the replacement is on its way); on [false] the fold is reverted —
    a receive folded into a report the bank will never re-read would
    vanish from the books entirely.  Returns whether the fold
    committed; on [false] (including a non-matching [epoch], where
    [deliver] is never called) the caller books the receive via
    {!record_receive} as usual. *)

val early_pending : t -> int
(** Number of receives currently buffered for future periods. *)

val snapshot : t -> int array
(** Copy of the current-period vector (buffered early receives are
    excluded — they belong to later snapshots). *)

val report_upto : t -> seq:int -> (int * int) array
(** The cumulative row answering audit round [seq]: the current-period
    vector plus every buffered receive stamped with epoch [<= seq].
    When the ISP has not missed a round this is exactly {!snapshot};
    after missing rounds it is the row covering all of them at once,
    which the bank reconciles against its carry of the peers' earlier
    reports.  Pure — pair with {!reset_upto}.  In canonical sparse
    form, non-zero [(peer, count)] cells sorted by peer: what an honest
    ISP puts on the audit wire — O(traffic partners), never O(n). *)

val populated : t -> int
(** Number of non-zero cells in the current-period vector. *)

val reset_upto : t -> seq:int -> unit
(** Close the period(s) answering audit round [seq] (§4.4): buffered
    receives stamped [<= seq] are discarded (the {!report_upto} row
    reported them), epoch [seq+1] becomes the fresh current period, and
    later epochs stay buffered. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** Capture and in-place restore of the current-period and
    early-receive vectors (restore is reached only from an ISP's WAL
    checkpoint image), in canonical sorted sparse-pairs form
    (snapshot v5): equal vectors encode to identical bytes.  The tracer
    binding is wiring, not state, and is untouched.  Restore raises
    [Persist.Codec.Corrupt] on an out-of-range peer or malformed row. *)

(** Attribution over a round's violations.  The pair check is the
    sparse engine ({!Audit.Verify} in [lib/audit]); [violation] is the
    {e same type} as [Audit.Verify.violation]. *)
module Audit : sig
  type violation = Audit.Verify.violation = {
    isp_a : int;
    isp_b : int;
    discrepancy : int;  (** [credit_a(b) + credit_b(a)], non-zero. *)
  }

  val implicated : violation list -> int list
  (** Sorted distinct ISPs appearing in any violation — the §4.4
      "suspected misbehaved ISPs" for further investigation. *)

  val suspects : compliant:bool array -> violation list -> int list
  (** Majority-rule accusation: an ISP is a suspect when it violates
      with a strict majority of its possible peers (a fraudulent array
      disagrees with nearly everyone; an honest one only with the
      cheaters).  Falls back to {!implicated} when nobody crosses the
      threshold (e.g. one isolated, inherently ambiguous pair). *)
end
