let log_src = Logs.Src.create "serve.dispatch" ~doc:"Serving-path dispatcher"

module Log = (val Logs.src_log log_src)

(* One lane per directed MTA pair: a bounded admission queue feeding up
   to [max_sessions] concurrent sessions.  Lanes are created on first
   use and never destroyed. *)
type lane = {
  src : int;
  dst : int;
  src_mta : Smtp.Mta.t;
  dst_mta : Smtp.Mta.t;
  queue : Queue.t;
  mutable active : int;  (* sessions currently occupying a slot *)
}

type t = {
  net : Smtp.Mta.network;
  engine : Sim.Engine.t;
  cfg : Config.t;
  rng : Sim.Rng.t;
  slo : Slo.t;
  lanes : (int, lane) Hashtbl.t;  (* key = (src lsl 20) lor dst *)
  mutable backpressured : int;  (* first admissions refused *)
  mutable deferred : int;  (* full-queue parks into the MTA retry queue *)
  mutable started : int;  (* sessions opened *)
}

let config t = t.cfg
let slo t = t.slo
let backpressured t = t.backpressured
let deferred t = t.deferred
let sessions_started t = t.started

let lane_key ~src ~dst = (src lsl 20) lor dst

let lane_of t ~src ~dst =
  let key = lane_key ~src ~dst in
  match Hashtbl.find_opt t.lanes key with
  | Some lane -> lane
  | None ->
      let lane =
        {
          src;
          dst;
          src_mta = Smtp.Mta.find_host t.net src;
          dst_mta = Smtp.Mta.find_host t.net dst;
          queue = Queue.create ~capacity:t.cfg.queue_depth;
          active = 0;
        }
      in
      Hashtbl.replace t.lanes key lane;
      lane

let queue_depth t =
  Hashtbl.fold (fun _ lane acc -> acc + Queue.length lane.queue) t.lanes 0

let active_sessions t =
  Hashtbl.fold (fun _ lane acc -> acc + lane.active) t.lanes 0

let now t = Sim.Engine.now t.engine

(* The session/retry pipeline.  [offer] is the single entry point for
   first admissions and backoff re-admissions alike; a completed
   session frees its slot and [pump]s the queue.  Bounce and retry
   decisions are the MTA's own ([Smtp.Mta.bounce],
   [Smtp.Mta.retry_transient]) so conservation — refund-on-bounce
   included — is byte-for-byte the direct path's. *)
let rec offer t lane (entry : Queue.entry) ~first =
  if lane.active < t.cfg.max_sessions && Queue.is_empty lane.queue then begin
    start_session t lane entry;
    `Queued
  end
  else
    match Queue.push lane.queue entry with
    | `Ok -> `Queued
    | `Full ->
        if first then begin
          (* 421 at the front door: the submitter hears about it
             (bounce from [submit], [`Backpressure] from
             [submit_checked]) and the load stays the offerer's
             problem — it must not teleport into the queue. *)
          t.backpressured <- t.backpressured + 1;
          `Refused
        end
        else begin
          (* A re-admission finding the queue full again: park in the
             MTA's backoff queue.  This burns a session attempt, so a
             lane that stays saturated bounces (and refunds) rather
             than parking forever. *)
          park t lane entry "421 admission queue full";
          `Queued
        end

and park t lane (entry : Queue.entry) reason =
  t.deferred <- t.deferred + 1;
  match
    Smtp.Mta.retry_transient lane.src_mta ~dest_host:lane.dst entry.envelope
      entry.message ~attempt:entry.attempt ~reason
      ~resubmit:(fun ~attempt ->
        ignore (offer t lane { entry with attempt } ~first:false))
  with
  | `Parked _ -> ()
  | `Bounced -> record_bounced t entry

and record_bounced t (entry : Queue.entry) =
  Slo.record t.slo Slo.Bounced ~latency:(now t -. entry.submitted)

and start_session t lane (entry : Queue.entry) =
  lane.active <- lane.active + 1;
  t.started <- t.started + 1;
  let go () =
    Session.start ~engine:t.engine ~rng:t.rng ~rtt:t.cfg.rtt
      ~bytes_per_sec:t.cfg.bytes_per_sec ~src:lane.src_mta ~dest:lane.dst_mta
      entry.envelope entry.message
      ~on_close:(fun outcome -> session_done t lane entry outcome)
  in
  (* The same fault surface as the direct path, consulted at session
     open: [`Lost] burns an attempt (without opening a session, so the
     session counter agrees with the direct path), [`Delayed d] holds
     the slot for [d] — a connection hanging in SYN. *)
  match Smtp.Mta.link_verdict t.net ~src:lane.src ~dst:lane.dst with
  | `Deliver -> go ()
  | `Delayed d -> ignore (Sim.Engine.schedule_after t.engine ~delay:d go)
  | `Lost ->
      ignore
        (Sim.Engine.schedule_after t.engine ~delay:0. (fun () ->
             session_done t lane entry
               (`Transient "connection lost (link fault)")))

and session_done t lane (entry : Queue.entry) outcome =
  lane.active <- lane.active - 1;
  (match outcome with
  | `Delivered _ ->
      let klass =
        Slo.class_of_delivery ~attempt:entry.attempt
          ~paid:(Smtp.Message.payment entry.message <> None)
      in
      Slo.record t.slo klass ~latency:(now t -. entry.submitted)
  | `Permanent reason ->
      Smtp.Mta.bounce lane.src_mta entry.envelope entry.message reason;
      record_bounced t entry
  | `Transient reason -> (
      match
        Smtp.Mta.retry_transient lane.src_mta ~dest_host:lane.dst
          entry.envelope entry.message ~attempt:entry.attempt ~reason
          ~resubmit:(fun ~attempt ->
            ignore (offer t lane { entry with attempt } ~first:false))
      with
      | `Parked _ -> ()
      | `Bounced -> record_bounced t entry));
  pump t lane

and pump t lane =
  (* [start_session] completes only from a later engine event (even
     [`Lost] defers), so the loop cannot re-enter itself. *)
  let continue = ref true in
  while !continue && lane.active < t.cfg.max_sessions do
    match Queue.pop lane.queue with
    | Some entry -> start_session t lane entry
    | None -> continue := false
  done

let serve_capacity t ~src ~dest_host =
  let lane = lane_of t ~src ~dst:dest_host in
  lane.active < t.cfg.max_sessions || not (Queue.is_full lane.queue)

let serve_admit t ~(src : Smtp.Mta.t) ~dest_host envelope message =
  let lane = lane_of t ~src:(Smtp.Mta.host src) ~dst:dest_host in
  let entry =
    { Queue.envelope; message; submitted = now t; attempt = 0 }
  in
  offer t lane entry ~first:true

let attach ?(config = Config.default) ~rng net =
  Config.validate config;
  let t =
    {
      net;
      engine = Smtp.Mta.engine net;
      cfg = config;
      rng;
      slo = Slo.create ();
      lanes = Hashtbl.create 64;
      backpressured = 0;
      deferred = 0;
      started = 0;
    }
  in
  Smtp.Mta.set_serving net
    (Some
       {
         Smtp.Mta.serve_admit =
           (fun ~src ~dest_host envelope message ->
             serve_admit t ~src ~dest_host envelope message);
         serve_capacity =
           (fun ~src ~dest_host -> serve_capacity t ~src ~dest_host);
       });
  t

let detach t = Smtp.Mta.set_serving t.net None

let register_metrics t metrics =
  Slo.register t.slo metrics;
  Obs.Metrics.gauge metrics "serve.queue.depth" (fun () ->
      float_of_int (queue_depth t));
  Obs.Metrics.gauge metrics "serve.sessions.active" (fun () ->
      float_of_int (active_sessions t));
  Obs.Metrics.gauge metrics "serve.sessions.started" (fun () ->
      float_of_int t.started);
  Obs.Metrics.gauge metrics "serve.backpressured" (fun () ->
      float_of_int t.backpressured);
  Obs.Metrics.gauge metrics "serve.deferred" (fun () ->
      float_of_int t.deferred);
  let depth = Obs.Metrics.series metrics "serve.queue.depth_series" in
  let active = Obs.Metrics.series metrics "serve.sessions.active_series" in
  ignore
    (Sim.Engine.every t.engine ~period:t.cfg.sample_period (fun () ->
         let time = now t in
         Sim.Stats.Series.record depth ~time (float_of_int (queue_depth t));
         Sim.Stats.Series.record active ~time
           (float_of_int (active_sessions t))))

let sorted_lanes t =
  Hashtbl.fold (fun key lane acc -> (key, lane) :: acc) t.lanes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let encode_state w t =
  let open Persist.Codec.W in
  int w t.backpressured;
  int w t.deferred;
  int w t.started;
  Sim.Rng.encode_state w t.rng;
  Slo.encode_state w t.slo;
  list
    (fun w (_, lane) ->
      int w lane.src;
      int w lane.dst;
      int w lane.active;
      Queue.encode_state w lane.queue)
    w (sorted_lanes t)

let restore_state r t =
  let open Persist.Codec.R in
  t.backpressured <- int r;
  t.deferred <- int r;
  t.started <- int r;
  Sim.Rng.restore_state r t.rng;
  Slo.restore_state r t.slo;
  ignore
    (list
       (fun r ->
         let src = int r in
         let dst = int r in
         let active = int r in
         match Hashtbl.find_opt t.lanes (lane_key ~src ~dst) with
         | None ->
             corrupt r
               (Printf.sprintf "Serve.Dispatch: no live lane %d->%d" src dst)
         | Some lane ->
             if lane.active <> active then
               corrupt r
                 (Printf.sprintf
                    "Serve.Dispatch: lane %d->%d has %d active sessions, \
                     snapshot says %d"
                    src dst lane.active active);
             Queue.restore_state r lane.queue)
       r)
