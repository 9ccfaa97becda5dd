(** Structured trace stream.

    A tracer collects typed events stamped with simulated time.  Each
    event carries an actor (the ISP index, or [-1] for global/bank-side
    actions) and a {!payload}: one constructor per event kind the
    library emits, with that kind's fields as typed record fields.  The
    exported form ([Export]) names each kind by a component label
    (["isp"], ["bank"], ["credit"], ["world"], ["obs"]) and a name; the
    constructor names spell that pair, and DESIGN.md §7 tabulates every
    kind with its fields and the checkers that read it.  Multi-step
    protocol actions (Buy→Buy_reply, an audit epoch) are bracketed by
    {e spans}: a [span_begin] returns an id that the matching
    [span_end] quotes, so exporters can reconstruct durations.

    Recording is a bounded ring buffer: the most recent [capacity]
    events are retained, older ones are evicted (and counted in
    {!dropped}).  Independent of recording, {e sinks} subscribed with
    {!subscribe} see every event as it is emitted — this is what the
    online invariant checkers build on.

    Emission consumes no randomness and, for a deterministic
    simulation, produces a byte-for-byte deterministic stream.  Hot
    call sites guard with {!active} so an unused tracer costs a single
    load and branch and the payload is never built. *)

type phase = Instant | Begin | End
(** Event phase: a point event, or one end of a span. *)

(** What happened.  The [Isp_*] kinds are emitted by [Zmail.Isp] with
    the ISP as actor, [Credit_*] by its credit vector (same actor),
    [Bank_*] by [Zmail.Bank] and [World_*] by [Zmail.World] (actor
    [-1] for bank- and world-scope events), and [Obs_checkpoint] by
    [Zmail.World.check_invariants].  Nonces are [Int64] nonces
    truncated to [int]. *)
type payload =
  | Isp_charge of { user : int; dest : int }
      (** A paid send debited [user]; an e-penny is now in flight. *)
  | Isp_refund of { user : int; dest : int }
      (** A paid message bounced; the sender got its e-penny back. *)
  | Isp_settle of { from : int; rcpt : int }
      (** A paid message from ISP [from] credited user [rcpt]. *)
  | Isp_mint of { peer : int; user : int }
      (** A cheating kernel booked a fake receive from [peer]. *)
  | Isp_buy_begin of { nonce : int; amount : int }
      (** [Begin] of the ISP's buy span. *)
  | Isp_buy_end of { accepted : bool }  (** [End] of the buy span. *)
  | Isp_sell_begin of { nonce : int; amount : int }
      (** [Begin] of the ISP's sell span. *)
  | Isp_sell_end of { accepted : bool }  (** [End] of the sell span. *)
  | Isp_buy_apply of { nonce : int; amount : int; accepted : bool }
      (** A buy reply applied to the pool. *)
  | Isp_sell_apply of { nonce : int; amount : int; taken : int }
      (** A sell reply applied; [taken] left the pool. *)
  | Isp_freeze of { seq : int }  (** Audit round [seq] froze sending. *)
  | Isp_thaw of { seq : int }  (** The ISP answered round [seq]. *)
  | Credit_send of { peer : int }  (** [credit[peer] += 1]. *)
  | Credit_recv of { peer : int }
      (** A receive booked into the open period. *)
  | Credit_recv_early of { peer : int; epoch : int }
      (** A receive stamped with a later round, buffered. *)
  | Credit_recv_amended of { peer : int; epoch : int }
      (** A receive folded into the already-reported round [epoch]. *)
  | Credit_cancel of { peer : int }  (** A refunded send, undone. *)
  | Credit_fold of { upto : int; count : int }
      (** Buffered early receives folded into the round [upto] report. *)
  | Credit_reset of { promoted : int }
      (** The period closed; [promoted] early receives open the next. *)
  | Bank_buy of { isp : int; nonce : int; amount : int; accepted : bool }
      (** A fresh buy request processed. *)
  | Bank_buy_replay of { isp : int; nonce : int; amount : int }
      (** A duplicate buy answered from the reply cache. *)
  | Bank_sell of { isp : int; nonce : int; amount : int }
      (** A fresh sell request processed. *)
  | Bank_sell_replay of { isp : int; nonce : int; amount : int }
      (** A duplicate sell answered from the reply cache. *)
  | Bank_audit_reply of { isp : int; seq : int; amended : bool }
      (** An audit reply for the open round (a replacement when
          [amended]). *)
  | Bank_reject of { isp : int; reason : string }
      (** A message refused at the bank's front door. *)
  | Bank_audit_begin of { seq : int; absent : int }
      (** [Begin] of the bank's audit span. *)
  | Bank_audit_end of {
      seq : int;
      violations : int;
      suspects : int;
      absent : int;
      rings : int;
      convicted : int;
      cleared : int;
      lied_volume : int;
      ring_volume : int;
      convicted_isps : int list;
      ring_isps : int list;
          (** Only the cycle detector's convictions: majority offenders
              can be transient (in-flight traffic at the snapshot) and
              are not held to ring attribution's soundness bar. *)
      cleared_isps : int list;
    }  (** [End] of the audit span: the round's verdict. *)
  | World_retransmit of { timeout : float }
      (** A bank exchange resent after [timeout] seconds. *)
  | World_bankwire_drop of { kind : string }
  | World_bankwire_delay of { delay : float }
  | World_bankwire_inject of { kind : string }
      (** What a bank-wire tap did to one envelope of [kind]. *)
  | World_audit_deferred_bank_down  (** No round: the bank is down. *)
  | World_audit_deferred of { unreachable : int }
      (** No round: too many ISPs partitioned from the bank. *)
  | World_recover_failed of { why : string }
  | World_crash of { downtime : float }
  | World_recover
  | World_bank_crash of { downtime : float }
  | World_bank_recover
  | World_backpressured  (** A submission refused by the serving layer. *)
  | World_refused_down  (** A submission to a crashed ISP. *)
  | World_deferred  (** A send parked by an audit freeze. *)
  | Obs_checkpoint of {
      total : int;
      outstanding : int;
      minted : int;
      quiescent : bool;
    }
      (** Independently measured system totals for the checkers;
          [quiescent] asserts no paid mail is in flight. *)

type event = {
  seq : int;  (** emission order, 0-based *)
  time : float;  (** simulated time, seconds *)
  actor : int;  (** ISP index, or [-1] for bank/world scope *)
  phase : phase;
  span : int;  (** span id for [Begin]/[End]; [0] for instants *)
  payload : payload;
}

type t
(** A tracer. *)

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] returns a tracer whose ring buffer retains
    the last [capacity] events (default [4096]).  [~capacity:0] records
    nothing; such a tracer stays inert until a sink subscribes. *)

val none : t
(** A shared, permanently-inert tracer: {!active} is [false], {!emit}
    is a no-op.  Used as the default before instrumented components are
    wired to a real tracer.  Subscribing to it raises
    [Invalid_argument]. *)

val active : t -> bool
(** [true] when events are recorded or observed, i.e. the capacity is
    positive or at least one sink is subscribed.  Instrumented code
    guards event construction with this so disabled tracing is free. *)

val set_clock : t -> (unit -> float) -> unit
(** Set the simulated-time source (typically [fun () -> Engine.now e]).
    Defaults to a constant [0.]. *)

val subscribe : t -> (event -> unit) -> unit
(** Add a sink called synchronously with every subsequent event.  A
    sink that raises aborts the emitting operation — invariant checkers
    rely on this to fail fast. *)

val unsubscribe : t -> (event -> unit) -> unit
(** Remove a sink added with {!subscribe} (compared physically;
    removing an unknown sink is a no-op).  Lets sequential scenarios
    share one tracer without stale checkers observing each other. *)

val emit : t -> actor:int -> payload -> unit
(** [emit t ~actor payload] records an instant event. *)

val span_begin : t -> actor:int -> payload -> int
(** Like {!emit} with phase [Begin]; returns a fresh span id to pass to
    {!span_end}.  Returns [0] when the tracer is inactive. *)

val span_end : t -> actor:int -> span:int -> payload -> unit
(** Close the span opened by the {!span_begin} that returned [span]. *)

val events : t -> event list
(** Ring-buffer contents, oldest first. *)

val recent : t -> int -> event list
(** [recent t n] is the last [n] recorded events, oldest first. *)

val emitted : t -> int
(** Total events emitted while active (recorded or not). *)

val dropped : t -> int
(** Events evicted from the ring buffer. *)

val clear : t -> unit
(** Empty the ring buffer (sinks and counters are untouched). *)

val encode_state : Persist.Codec.W.t -> t -> unit
(** Snapshot capture of the monotone emission counters (sequence and
    span ids).  Ring contents and capacity are a presentation choice
    and are not captured. *)
