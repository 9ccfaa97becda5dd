(** The serving-path dispatcher: bounded admission queues feeding
    concurrent SMTP sessions, per directed MTA pair ("lane").

    {!attach} installs itself as the network's {!Smtp.Mta.serving}
    layer, after which every remote submission flows: admission (queue,
    or refuse when the lane's queue is full) → a session slot (at most
    [max_sessions] concurrent {!Session}s per lane) → completion.
    Tempfails re-enter admission through the MTA's own bounded
    retry/backoff queue ({!Smtp.Mta.retry_transient}); permanent
    failures and exhausted retries bounce through {!Smtp.Mta.bounce} —
    so refunds, dead letters and conservation behave exactly as on the
    direct path.  Link faults ({!Smtp.Mta.link_verdict}) are consulted
    at session open, like the direct path's pre-session verdict.

    Every completion records its submission-to-completion latency into
    {!Slo} under the paid/unpaid/bounced/retried class. *)

type t

val attach : ?config:Config.t -> rng:Sim.Rng.t -> Smtp.Mta.network -> t
(** Create a dispatcher over [net]'s MTAs and install it
    ({!Smtp.Mta.set_serving}).  [rng] should be a dedicated stream
    (e.g. split off the world seed) so enabling the serving path never
    perturbs workload randomness.
    @raise Invalid_argument on an invalid [config]. *)

val slo : t -> Slo.t

val queue_depth : t -> int
(** Entries currently queued, summed over lanes. *)

val active_sessions : t -> int
(** Sessions currently holding a slot, summed over lanes. *)

val sessions_started : t -> int

val backpressured : t -> int
(** First admissions refused at a full queue via {!Smtp.Mta.submit},
    each surfaced to the submitter as a 421-style bounce.  Refusals
    probed through {!Smtp.Mta.submit_checked} are side-effect-free and
    are NOT counted here — the caller owns that accounting (e.g.
    [World]'s [backpressured_sends]) so it can undo its own legs and
    re-offer. *)

val deferred : t -> int
(** Re-admissions that found the queue full again and were parked
    into the MTA retry queue. *)

val register_metrics : t -> Obs.Metrics.t -> unit
(** Register the SLO gauges ({!Slo.register}), the
    [serve.queue.depth] / [serve.sessions.*] / [serve.backpressured] /
    [serve.deferred] gauges, and start a background sampler recording
    queue depth and active sessions into
    [serve.queue.depth_series] / [serve.sessions.active_series] every
    {!Config.sample_period}. *)

val encode_state : Persist.Codec.W.t -> t -> unit
(** Snapshot capture: counters, the dispatcher RNG,
    all four SLO histograms, and every lane (sorted by key) with its
    occupancy and queue metadata.  Sessions in flight are engine
    events, rebuilt by deterministic replay like all other pending
    work. *)
