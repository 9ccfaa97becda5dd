(** Mail transfer agents on a simulated network.

    A {!network} ties MTAs to one {!Sim.Engine.t}, an MX registry and a
    latency model.  Remote delivery has two paths:

    - {e direct} (the default): after a one-way latency draw, the
      message takes {!Server.deliver_direct} — a structural fast path
      property-tested equivalent to the full RFC 821 dialogue, exact
      because every {!Message.t} round-trips the wire.
    - {e served}: when a serving layer is installed ({!set_serving},
      normally by [Serve.Dispatch]), remote submissions enter bounded
      per-destination admission queues and are delivered by explicit
      concurrent SMTP sessions ([Serve.Session]) whose phases are
      individual engine events.  [deliver_direct] remains the fast path
      for experiments that do not opt in.

    Hooks let higher layers participate in the mail flow:
    - [outbound_stamp] rewrites a message as it leaves (a sending ISP
      could set the payment stamp here);
    - [inbound_filter] decides the fate of each arriving message
      (deliver, intercept for protocol processing, or discard);
    - [on_delivered] observes every mailbox write. *)

type network

val network :
  ?latency:(Sim.Rng.t -> float) -> ?local_latency:float -> Sim.Engine.t ->
  network
(** [latency] (default: exponential with mean 50 ms plus 10 ms floor)
    draws the one-way transmission delay preceding a {e direct} remote
    delivery; on the served path the session layer draws its own
    per-phase round-trip times instead ([Serve.Config.rtt]) and this
    model is not consulted.  [local_latency] (default 1 ms) applies to
    same-host delivery on both paths. *)

val engine : network -> Sim.Engine.t

val set_link_fault :
  network ->
  (src:int -> dst:int -> [ `Deliver | `Delayed of float | `Lost ]) option ->
  unit
(** Install (or clear) a per-link fault oracle consulted before each
    outbound SMTP session, keyed by the {!host} ids of the sending and
    receiving MTAs (a {!Sim.Fault.Mesh.attempt} closure fits directly).
    [`Lost] counts as a transient failure and burns a retry attempt;
    [`Delayed d] re-runs the same attempt after [d] seconds without
    consuming one.  [None] (the default) costs nothing on the delivery
    path. *)

val link_verdict :
  network -> src:Dns.host -> dst:Dns.host ->
  [ `Deliver | `Delayed of float | `Lost ]
(** Consult the installed link-fault oracle for one session attempt
    ([`Deliver] when none is installed).  The serving layer asks this
    at session open so queued deliveries cross the same fault surface
    as direct ones. *)

val retry_queue_length : network -> int
(** Envelopes currently parked in backoff across the whole network. *)

type t

type decision =
  | Deliver  (** Write to the addressee's mailbox. *)
  | Intercept  (** Consumed by the ISP layer; no mailbox write. *)
  | Discard of string  (** Dropped, with a reason (counted). *)

val create : network -> hostname:string -> domains:string list -> t
(** Create an MTA and register its domains in the network's MX
    registry.  [hostname] names the host in the [Message-Id] and
    [Received] stamps, so it must be a {!Message.host}: a non-empty
    printable token without space or [';'].  It is checked here, once,
    so no delivery can fail on it later.
    @raise Invalid_argument if [hostname] is not a valid host, or a
    domain is already registered; nothing is registered then. *)

val host : t -> Dns.host
val hostname : t -> string
val domains : t -> string list
val mailboxes : t -> Mailbox.t

val set_outbound_stamp : t -> (Envelope.t -> Message.t -> Message.t) -> unit
val set_inbound_filter : t -> (sender:Address.t -> rcpt:Address.t -> Message.t -> decision) -> unit
val set_on_delivered : t -> (rcpt:Address.t -> Message.t -> unit) -> unit

val set_on_bounce : t -> (Envelope.t -> Message.t -> string -> unit) -> unit
(** Observe every bounce on this (sending) MTA with the abandoned
    envelope, the full message and the failure reason — the hook a
    Zmail ISP uses to refund the e-penny riding in a dead letter. *)

val set_down : t -> bool -> unit
(** A down MTA answers sessions with 421; senders retry with backoff. *)

val is_down : t -> bool

val set_retain_mail : t -> bool -> unit
(** When [false], delivered messages are counted and fed to the
    [on_delivered] hook but {e not} stored in {!mailboxes} — the memory
    valve for million-user runs, where retaining every delivery forever
    would dominate the heap.  Default [true]. *)

val submit : t -> Envelope.t -> Message.t -> unit
(** Hand a message from a local user to this MTA for delivery
    (local and remote recipients are routed automatically).  A
    [Message-Id] naming this host ({!Message.message_id_of_seq}) is
    stamped if the message lacks one.  With a serving layer installed,
    a remote submission refused at admission (queue full) bounces —
    the [on_bounce] hook still fires, so paid mail is still refunded. *)

val submit_checked : t -> Envelope.t -> Message.t -> [ `Submitted | `Backpressure ]
(** As {!submit}, but when a serving layer is installed and any remote
    destination's admission queue lacks room, return [`Backpressure]
    {e without any side effect} — no counter moves, nothing is stamped
    or queued — so the caller can undo its own side of the transaction
    (e.g. refund the e-penny) and re-offer the message later.  Without
    a serving layer (or for purely local recipients) this is exactly
    [submit], returning [`Submitted]. *)

type stats = {
  submitted : int;  (** Messages accepted from local users. *)
  sessions : int;  (** Outbound SMTP sessions run. *)
  delivered : int;  (** Mailbox writes on this host. *)
  intercepted : int;
  discarded : int;
  bounced : int;  (** Envelope-recipients abandoned after retries. *)
  bytes_sent : int;  (** Message bytes sent over remote sessions. *)
}

val stats : t -> stats

(** {1 Serving-layer SPI}

    The hooks [Serve.Dispatch] uses to route remote delivery through
    explicit sessions while reusing this module's accounting, retry
    and bounce machinery.  Ordinary callers never need these. *)

type serving = {
  serve_admit :
    src:t -> dest_host:Dns.host -> Envelope.t -> Message.t ->
    [ `Queued | `Refused ];
      (** Take ownership of one remote delivery at submission time.
          [`Queued] means the serving layer will eventually deliver,
          retry or bounce it; [`Refused] makes {!submit} bounce the
          envelope (421-style). *)
  serve_capacity : src:Dns.host -> dest_host:Dns.host -> bool;
      (** Side-effect-free admission probe backing {!submit_checked}. *)
}

val set_serving : network -> serving option -> unit
(** Install (or remove) the serving layer.  [None] (the default)
    restores the direct path. *)

val find_host : network -> Dns.host -> t
(** The MTA with the given {!host} id.
    @raise Not_found for an unknown id. *)

val open_server : t -> Server.t
(** A fresh RFC 821 server session bound to this (receiving) MTA's
    recipient policy, for a {!Client.transport} to drive. *)

val accept_from_remote : t -> Envelope.t -> Message.t -> unit
(** Complete a remote delivery on this (receiving) MTA: set the
    [Received] stamp ({!Message.stamp_received}), run the inbound filter per recipient and
    deliver/intercept/discard — exactly what the direct path does when
    a session succeeds. *)

val count_session : t -> unit
(** Count one outbound SMTP session opened by this (sending) MTA. *)

val note_bytes_sent : t -> int -> unit
(** Add to this (sending) MTA's [bytes_sent] counter. *)

val bounce : t -> Envelope.t -> Message.t -> string -> unit
(** Abandon an envelope on this (sending) MTA: count it, append the
    dead letter and fire the [on_bounce] hook (which is what refunds
    paid mail). *)

val retry_transient :
  t -> dest_host:Dns.host -> Envelope.t -> Message.t -> attempt:int ->
  reason:string -> resubmit:(attempt:int -> unit) ->
  [ `Parked of float | `Bounced ]
(** The shared tempfail decision: park the envelope in the network's
    backoff queue and schedule [resubmit ~attempt:(attempt+1)] after
    {!Sim.Retry.delay}[ ~attempt] of a 60 s base doubling per attempt
    with a 1 h cap ([`Parked backoff]), or — on the third and final
    attempt ([attempt = 2]) — {!bounce} it ([`Bounced]).  The direct
    path passes its own transmit as [resubmit]; the serving layer
    passes queue re-admission. *)
