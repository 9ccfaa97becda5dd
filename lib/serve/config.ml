type queue_policy = Drop

type t = {
  queue_depth : int;
  queue_policy : queue_policy;
  max_sessions : int;
  rtt : Sim.Rng.t -> float;
  bytes_per_sec : float;
  sample_period : float;
}

(* The default round trip mirrors the MTA's one-way latency model
   (10 ms floor plus exponential with mean 50 ms) once per phase: a
   six-phase single-recipient session occupies its slot for ~0.4 s of
   simulated time, so a lane of 4 slots serves ~10 msg/s. *)
let default_rtt rng = 0.010 +. Sim.Dist.exponential rng ~rate:20.

let default =
  {
    queue_depth = 64;
    queue_policy = Drop;
    max_sessions = 4;
    rtt = default_rtt;
    bytes_per_sec = 1e6;
    sample_period = 60.;
  }

let validate t =
  if t.queue_depth < 1 then invalid_arg "Serve.Config: queue_depth must be >= 1";
  if t.max_sessions < 1 then invalid_arg "Serve.Config: max_sessions must be >= 1";
  if not (t.bytes_per_sec > 0.) then
    invalid_arg "Serve.Config: bytes_per_sec must be positive";
  if not (t.sample_period > 0.) then
    invalid_arg "Serve.Config: sample_period must be positive"
