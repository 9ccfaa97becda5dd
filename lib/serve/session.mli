(** A typed SMTP session as explicit engine events.

    Runs the full RFC 821 dialogue — connect → HELO → MAIL → RCPT… →
    DATA → body/dot (→ pipelined QUIT) — against the destination's real
    {!Smtp.Server} state machine via a {!Smtp.Client.transport}, but
    spread over the simulation clock: one round trip ([rtt]) is drawn
    per phase and the body additionally pays its wire size at
    [bytes_per_sec].  Many sessions interleave freely; each is a chain
    of one-shot engine events holding no global state.

    The destination's [is_down] flag is probed at every phase boundary,
    so a crash mid-session tempfails at the phase it interrupted.
    Failure classification matches the direct path: 4xx and lost
    connections are [`Transient], 5xx and all-recipients-rejected are
    [`Permanent]. *)

type outcome =
  [ `Delivered of int  (** Accepted-recipient count; mailboxes written. *)
  | `Transient of string
  | `Permanent of string ]

val start :
  ?tap:(Smtp.Client.transport -> Smtp.Client.transport) ->
  engine:Sim.Engine.t ->
  rng:Sim.Rng.t ->
  rtt:(Sim.Rng.t -> float) ->
  bytes_per_sec:float ->
  src:Smtp.Mta.t ->
  dest:Smtp.Mta.t ->
  Smtp.Envelope.t ->
  Smtp.Message.t ->
  on_close:(outcome -> unit) ->
  unit
(** Open one session now (counted via {!Smtp.Mta.count_session}); the
    first phase fires one [rtt] later and [on_close] is called exactly
    once, from inside the final phase's event.  On [`Delivered],
    acceptance, the [Received] stamp and inbound filtering have already
    run via {!Smtp.Mta.accept_from_remote}.

    [tap] wraps the session's line transport before the first phase; it
    observes the wire (a test records the transcript with it) and must
    pass every line and reply through unchanged.  Default: none. *)
