(** Distributed banks (§5, "Bank Setup").

    The paper: "the role of the bank in the Zmail protocol can be
    implemented as a set of distributed banks … It is fairly
    straightforward to extend the Zmail protocol to incorporate
    multiple collaborating banks."  This module is that extension.

    Every member is a full {!Bank.t}.  Each ISP is {e homed} to one
    member, which holds its real-money account and serves its §4.3
    buy/sell requests through {!Bank.on_isp_message} (sealed to that
    bank's key; requests sealed to a foreign member are rejected), so
    a federation member keeps the single bank's reply cache and
    answers a retransmitted request exactly once.  This module keeps
    only what is federation-level: the home map, the Byzantine
    behaviours, the clearing books and statements, and the close of
    the shared audit round.

    Audits run through {!World}, on the member banks' own rounds
    ({!Bank.start_round}): each member collects its ISPs' replies with
    the single bank's retransmission, quorum, partition carry and
    amended replies.  Credit consistency is a property of ISP
    {e pairs}, which may be homed to different banks, so the round
    closes once for the whole federation ({!close_round}), checking
    every member's rows in one pass.

    {b Clearing.}  E-pennies issued by bank A migrate inside email to
    ISPs homed at bank B, whose buy-backs then pay out cash B never
    collected.  Each bank's {!position} drifts accordingly;
    {!settle_plan} computes the inter-bank transfers that return every
    position to the federation mean, conserving money.

    Clearing is {e not} assumed to run over a perfect channel.  Each
    transfer is signed as a {!Wire.Transfer} and shipped through
    whatever lossy, delaying, partitioning or tampered link the caller
    routes it over ({!Clearing} drives it through a {!Sim.Fault.Mesh}
    with retry/backoff, and E15 runs it on a reliable one), and money
    moves {b exactly once} at delivery:
    the receiving bank dedups on the transfer id ({!receive_transfer})
    and acks, the sender retransmits until acked.  Debit and credit
    land atomically at delivery, so total federation cash is conserved
    at every instant, however many transfers are in flight — an
    undelivered transfer is carry, not lost money.

    A member bank can also be {e Byzantine} ({!bank_behavior}): it may
    over-issue unbacked e-pennies, misreport its clearing position, or
    lie in the audit on its members' behalf.  Settlement-time
    {!statements} are checked by {!verify_statements} (book
    self-consistency plus the member-deposit cross-check), audit-time
    lies are attributed by {!bank_suspects}, and a flagged bank is
    contained by settling around it ([settle_plan ~exclude]).

    The single-bank protocol is the [n_banks = 1] special case. *)

type bank_behavior =
  | Honest_bank
  | Over_issue of int
      (** After every accepted member buy, hand up to this many of the
          debited pennies back to the member (a kickback) while the
          full e-penny amount stays issued: unbacked issue.  The money
          and the books disagree, so the bank's truthful statement
          fails the self-consistency check. *)
  | Skim_position of int
      (** Declare this many pennies of phantom cash {e and} phantom
          issue in clearing statements, to extract larger transfers.
          Self-consistent, but contradicted by what the bank's own
          members attest to having deposited. *)
  | Lie_in_audit of int
      (** Add this delta to each own-member audit row entry against
          every foreign-homed compliant peer before the rows are
          checked.
          Breaks antisymmetry on {e every} cross-bank pair involving
          its members while intra-bank pairs stay clean — the block
          signature {!bank_suspects} detects; {!suspects_excluding_banks}
          then clears the wrongly implicated member ISPs. *)

type config = {
  n_banks : int;
  n_isps : int;
  home : int array;  (** [home.(isp)] is the ISP's member bank. *)
  behaviors : bank_behavior array;  (** Per member bank. *)
}

val default_config : n_banks:int -> n_isps:int -> config
(** ISPs homed round-robin, every bank honest. *)

type t

val create :
  ?disk:(int -> Sim.Disk.t option) -> ?compliant:bool array -> Sim.Rng.t -> config -> t
(** Member [b] is [Bank.create ?disk:(disk b) rng (Bank.default_config
    ~n_isps ~compliant:c)], created in bank order, where [c] marks the
    compliant ISPs homed at [b] ([compliant] defaults to every ISP):
    each compliant ISP is audited by its home bank, and every ISP holds
    its {!Bank.default_config} account there.  With one bank this is
    exactly the single bank a {!World} always had. *)

val n_banks : t -> int
val bank : t -> int -> Bank.t
(** Member [b]. *)

val home_of : t -> isp:int -> int
val public_key : t -> bank:int -> Toycrypto.Rsa.public
(** ISPs seal their traffic to their home bank's key. *)

val account_balance : t -> isp:int -> int
(** The ISP's account at its home bank, plus any {!Over_issue}
    kickback it received. *)

val outstanding : t -> bank:int -> Epenny.amount
(** E-pennies issued minus redeemed by one member bank (may be
    negative: the bank redeemed foreign issue). *)

val total_outstanding : t -> Epenny.amount
(** Federation-wide liability; equals the sum of every ISP's e-penny
    growth (the conservation invariant). *)

val unbacked : t -> bank:int -> int
(** Ground truth of {!Over_issue}: e-pennies this bank issued without
    collecting the backing cash.  Never declared; experiments compare
    it against what the statement checks recover. *)

val total_money : t -> int
(** Sum of every ISP account and every bank till.  Buys, sells,
    clearing and even Byzantine issue only move pennies around, so
    this is constant at its value at {!create} — the exact-money-
    conservation check E19 runs in every cell. *)

val on_isp_message :
  ?ready:bool -> t -> from_isp:int -> Toycrypto.Seal.sealed -> Bank.response
(** Serve an ISP-origin message at the sender's home bank
    ({!Bank.on_isp_message}): a §4.3 buy/sell, or an audit reply.  An
    envelope sealed to another member is rejected as
    {!Bank.Foreign_bank} before it reaches the home bank (and so is a
    sender out of range, as {!Bank.Unknown_isp}); forgeries are
    rejected there.  A retransmitted buy or sell gets the home bank's
    cached reply and moves no money.  A reply that completes its
    member's collection closes the round ({!close_round}) iff [ready]
    (default [true]; a world passes "every member is up"); the
    result is then {!Bank.Audit_complete}. *)

(** {1 Audit rounds} *)

val open_round : ?except:int list -> t -> (int * Wire.signed) list
(** {!Bank.start_round} at every member: the request for each
    compliant ISP not in [except], signed by its home bank. *)

val close_round : t -> Bank.audit_result option
(** Close the open round iff every member has collected its ISPs'
    replies ({!Bank.close_round}), applying each {!Lie_in_audit}
    member's rewrite to the rows it collected.  [None] otherwise. *)

val bank_suspects : t -> Bank.audit_result -> int list
(** Member banks whose lie explains the violation pattern: every
    cross-bank pair the round checked involving the bank's members
    broken, every intra-bank pair clean.  A single lying ISP breaks its intra-bank
    pairs too, so it never matches (except the degenerate
    one-member-bank case, where bank and member are indistinguishable). *)

val suspects_excluding_banks : t -> Bank.audit_result -> banks:int list -> int list
(** Re-run suspect attribution with the flagged banks' cross-bank
    violations explained away.  Member ISPs wrongly implicated by their
    home bank's lie are cleared; a genuinely cheating ISP still breaks
    intra-bank pairs and survives the filter. *)

(** {1 Clearing statements} *)

type statement = {
  st_bank : int;
  st_outstanding : int;  (** E-pennies issued minus redeemed. *)
  st_cash : int;
  st_net_cleared : int;
}
(** What one member bank declares at settlement time. *)

val statements : t -> statement list
(** As declared — Byzantine behaviors shape their own entries. *)

val verify_statements : t -> statement list -> (int * string) list
(** Flag inconsistent statements, with a reason.  Per bank: the books
    must self-balance ([cash - net_cleared = outstanding],
    catches {!Over_issue}) and the declared holdings must match the
    member-attested deposits (catches {!Skim_position}).  A liar
    consistent against {e both} checks would need its members' issuance
    receipts forged too, which the threat model (bank Byzantine, ISPs
    honest about their own money) excludes. *)

(** {1 Clearing} *)

val position : t -> bank:int -> int
(** Real pennies this bank holds beyond its own liability: the cash it
    collected for issued e-pennies minus the cash it paid redeeming.
    Positive = owes the federation; negative = is owed. *)

val settle_plan :
  ?exclude:int list -> ?in_flight:(int * int * int) list -> t ->
  (int * int * int) list
(** The transfers [(from_bank, to_bank, pennies)] that bring every
    non-excluded bank's position to the non-excluded mean (zero when
    nothing is excluded), without applying them — the async clearing
    path plans here and moves money at delivery.  [in_flight] lists
    transfers already issued but not yet delivered; they are treated as
    executed so a partition round is never planned twice. *)

(** {1 Clearing wire messages}

    The only way money moves between banks: the sender plans with
    {!settle_plan}, wraps each transfer with {!sign_transfer} and
    retransmits it over the lossy channel until the matching ack
    arrives; the receiver applies it exactly once.  See {!Clearing}
    for the mesh-routed driver. *)

val next_xfer_id : t -> int
(** Fresh monotone transfer id (the dedup key). *)

val sign_transfer :
  t -> from_bank:int -> to_bank:int -> amount:int -> xfer_id:int -> Wire.signed
(** A {!Wire.Transfer} signed by [from_bank]. *)

val receive_transfer : t -> Wire.signed -> (int * Wire.signed, Bank.reject) result
(** Deliver one transfer message at its destination bank.  Verifies the
    claimed origin bank's signature (forged or bit-flipped transfers
    are [Error Unreadable]), applies the money exactly once — debit,
    credit and both banks' clearing lines in one step, so total cash
    is invariant at every instant — (a duplicate is acked again
    without a second application), and returns [(xfer_id, ack)] where
    the ack is signed by the receiving bank. *)

val receive_ack : t -> to_bank:int -> Wire.signed -> (int, Bank.reject) result
(** Verify an ack signed by [to_bank] and return the acked transfer
    id; the sender stops retransmitting it. *)

val transfer_applied : t -> to_bank:int -> xfer_id:int -> bool
(** Has this transfer already landed at [to_bank]?  The planner uses it
    to treat delivered-but-unacked transfers as executed — safe because
    the receiver's dedup guarantees they never apply twice. *)

(** {1 Stats} *)

type stats = {
  transfers_applied : int;
  transfers_duplicate : int;  (** Redelivered transfers acked again. *)
}
(** Per-member buy/sell and reject counts are in each member's
    {!Bank.stats}. *)

val stats : t -> stats
