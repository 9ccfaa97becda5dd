(** Tuning knobs for the serving path (one record shared by
    {!Dispatch}, {!Session} and {!Slo}).

    A full admission queue has one policy, [Drop]: a first submission
    to a full lane is refused (421-style) — {!Smtp.Mta.submit} bounces
    the envelope, {!Smtp.Mta.submit_checked} reports backpressure to
    the submitter without side effects — and a backoff re-admission
    that finds it full is parked in the MTA's retry queue again,
    burning a session attempt. *)

type queue_policy = Drop

type t = {
  queue_depth : int;  (** Admission-queue capacity per directed MTA pair. *)
  queue_policy : queue_policy;
      (** Always [Drop]; nothing reads it.  perfbench's serving config
          is a [{ default with ... }] literal naming every other field,
          so the field goes when that literal changes. *)
  max_sessions : int;  (** Concurrent SMTP sessions per directed MTA pair. *)
  rtt : Sim.Rng.t -> float;
      (** Round-trip time drawn once per session phase (connect, HELO,
          MAIL, each RCPT, DATA, body). *)
  bytes_per_sec : float;
      (** Wire bandwidth applied to the DATA body on top of its
          round trip. *)
  sample_period : float;
      (** Period of the queue-depth/active-session series sampler
          ({!Dispatch.register_metrics}). *)
}

val default : t
(** Depth 64, 4 sessions per lane, an RTT of 10 ms plus an
    exponential with mean 50 ms (the MTA's one-way latency model, paid
    once per phase), 1 MB/s, 60 s sampling. *)

val validate : t -> unit
(** @raise Invalid_argument on a non-positive depth, session cap,
    bandwidth or sample period. *)
