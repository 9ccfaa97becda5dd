(* Outside-in layer attribution for one traced round.

   Nothing here reaches inside the library: the probe times the
   benchmark's own calls into it ([send_email], [World.create]) and
   classifies every engine callback, through [Sim.Engine.set_monitor],
   by the public state the callback changed.  A callback's time is the
   monotonic interval from the end of the previous monitor call to the
   end of this callback, so it includes the engine's own dequeue; the
   bench-timed calls nested inside it are subtracted to give the
   callback's self time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* Log-scale histogram of nanosecond durations: 16 buckets per octave
   (~4.4% resolution), fixed size, no allocation per sample. *)
module Hist = struct
  type t = { buckets : int array; mutable n : int; mutable max : int }

  let per_octave = 16.
  let create () = { buckets = Array.make 1024 0; n = 0; max = 0 }

  let add t ns =
    let ns = if ns < 1 then 1 else ns in
    let i = int_of_float (Float.log2 (float_of_int ns) *. per_octave) in
    let i = if i > 1023 then 1023 else i in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.n <- t.n + 1;
    if ns > t.max then t.max <- ns

  let merge_into dst src =
    Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets;
    dst.n <- dst.n + src.n;
    if src.max > dst.max then dst.max <- src.max

  (* Geometric midpoint of the bucket holding the q-quantile, in ns;
     0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.
    else
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
      let rec go i acc =
        let acc = acc + t.buckets.(i) in
        if acc >= rank || i = 1023 then i else go (i + 1) acc
      in
      let i = go 0 0 in
      Float.pow 2. ((float_of_int i +. 0.5) /. per_octave)
end

(* Layers a callback or a bench-timed call can be charged to.
   [Generator] is the rest of a callback whose only classified work was
   a bench-timed send: the workload's own draw and reschedule.  [Other]
   is engine time no classifier claimed: pool checks, heartbeats, retry
   timers, daily resets.  [Check] is the benchmark's own oracle work
   inside a timed region (crash_sweep checks every op). *)
type layer =
  | Send
  | Create
  | Generator
  | Check
  | Deliver
  | Audit_close
  | Audit_freeze
  | Bank
  | Serve_session
  | Recover
  | Other

let all_layers =
  [ Send; Create; Generator; Check; Deliver; Audit_close; Audit_freeze; Bank; Serve_session; Recover; Other ]

let n_layers = List.length all_layers

let layer_index = function
  | Send -> 0
  | Create -> 1
  | Generator -> 2
  | Check -> 3
  | Deliver -> 4
  | Audit_close -> 5
  | Audit_freeze -> 6
  | Bank -> 7
  | Serve_session -> 8
  | Recover -> 9
  | Other -> 10

type span = { mutable count : int; mutable self : int; hist : Hist.t }

type t = {
  spans : span array;
  callbacks : Hist.t;  (* every engine callback, whole duration *)
  mutable mark : int;  (* end of the previous monitor call, ns *)
  mutable nested : int;  (* bench-timed ns inside the current callback *)
  mutable busy : int;  (* Σ callback durations, ns *)
  mutable overhead : int;  (* the probe's own time in monitor calls, ns *)
  mutable live_max : int;
}

let create () =
  {
    spans =
      Array.init n_layers (fun _ -> { count = 0; self = 0; hist = Hist.create () });
    callbacks = Hist.create ();
    mark = now_ns ();
    nested = 0;
    busy = 0;
    overhead = 0;
    live_max = 0;
  }

let span t layer = t.spans.(layer_index layer)
let busy_s t = secs t.busy

let charge t layer ns =
  let s = span t layer in
  s.count <- s.count + 1;
  s.self <- s.self + ns;
  Hist.add s.hist ns

let merge_into dst src =
  Array.iteri
    (fun i s ->
      let d = dst.spans.(i) in
      d.count <- d.count + s.count;
      d.self <- d.self + s.self;
      Hist.merge_into d.hist s.hist)
    src.spans;
  Hist.merge_into dst.callbacks src.callbacks;
  dst.busy <- dst.busy + src.busy;
  dst.overhead <- dst.overhead + src.overhead;
  dst.live_max <- max dst.live_max src.live_max

(* Time one bench call into the library when tracing.  Inside a
   callback its time is subtracted from the callback's self time;
   between engine runs it resets the mark so the next callback does not
   absorb it. *)
let with_probe probe layer ~inside f =
  match probe with
  | None -> f ()
  | Some t ->
      let t0 = now_ns () in
      let r = f () in
      let t1 = now_ns () in
      charge t layer (t1 - t0);
      if inside then t.nested <- t.nested + (t1 - t0) else t.mark <- t1;
      r

(* The public state a callback is classified by, read after every
   callback and compared with the reading after the previous one. *)
type watch = {
  world : Zmail.World.t;
  n_isps : int;
  compliant : bool array;
  outside : Smtp.Mta.t list;  (* MTAs of non-compliant ISPs *)
  crashes : bool;
  submits : bool;
  frozen : bool array;
  mutable delivered : int;
  mutable exchanges : int;
  mutable audits : int;
  mutable up : int;
  mutable serve_started : int;
  mutable serve_busy : bool;
  mutable auditing : bool;
  mutable submitted : int;
}

let delivered w =
  let c = Zmail.World.counters w.world in
  List.fold_left
    (fun acc m -> acc + (Smtp.Mta.stats m).Smtp.Mta.delivered)
    (c.Zmail.World.ham_delivered + c.Zmail.World.spam_delivered)
    w.outside

let bank_reading w =
  let s = Zmail.Bank.stats (Zmail.World.bank w.world) in
  ( s.Zmail.Bank.buys + s.Zmail.Bank.buys_rejected + s.Zmail.Bank.sells
    + s.Zmail.Bank.replays_dropped,
    s.Zmail.Bank.audits_completed )

let up_count w =
  if not w.crashes then 0
  else begin
    let n = ref (if Zmail.World.bank_up w.world then 1 else 0) in
    for i = 0 to w.n_isps - 1 do
      if Zmail.World.isp_up w.world i then incr n
    done;
    !n
  end

(* Freeze flags only move while an audit round is open, so they are
   read only then — probing 100 kernels per callback would dominate the
   traced run. *)
let freeze_changed w =
  let changed = ref false in
  for i = 0 to w.n_isps - 1 do
    if w.compliant.(i) then begin
      let f = Zmail.Isp.frozen (Zmail.World.isp w.world i) in
      if f <> w.frozen.(i) then begin
        changed := true;
        w.frozen.(i) <- f
      end
    end
  done;
  !changed

let serve_reading w =
  match Zmail.World.serve w.world with
  | None -> (0, false)
  | Some d ->
      ( Serve.Dispatch.sessions_started d,
        Serve.Dispatch.active_sessions d > 0 || Serve.Dispatch.queue_depth d > 0 )

(* Submissions accepted or refused by the world: read only where the
   library's own generators send, so no bench span times them. *)
let submitted w =
  if not w.submits then 0
  else
    let c = Zmail.World.counters w.world in
    let n = ref (c.Zmail.World.blocked_balance + c.Zmail.World.blocked_limit + c.Zmail.World.deferred_sends) in
    for i = 0 to w.n_isps - 1 do
      n := !n + (Smtp.Mta.stats (Zmail.World.mta w.world i)).Smtp.Mta.submitted
    done;
    !n

let make_watch ?(crashes = false) ?(submits = false) world =
  let cfg = Zmail.World.config world in
  let n = cfg.Zmail.World.n_isps in
  let outside =
    List.filter_map
      (fun i ->
        if cfg.Zmail.World.compliant.(i) then None else Some (Zmail.World.mta world i))
      (List.init n Fun.id)
  in
  let w =
    {
      world;
      n_isps = n;
      compliant = cfg.Zmail.World.compliant;
      outside;
      crashes;
      submits;
      frozen = Array.make n false;
      delivered = 0;
      exchanges = 0;
      audits = 0;
      up = 0;
      serve_started = 0;
      serve_busy = false;
      auditing = Zmail.Bank.audit_in_progress (Zmail.World.bank world);
      submitted = 0;
    }
  in
  w.submitted <- submitted w;
  w.delivered <- delivered w;
  let ex, au = bank_reading w in
  w.exchanges <- ex;
  w.audits <- au;
  w.up <- up_count w;
  let started, busy = serve_reading w in
  w.serve_started <- started;
  w.serve_busy <- busy;
  w

(* Priority order: a callback that changed several kinds of state is
   charged to the first that matches.  [bench_send] says a bench-timed
   send ran inside the callback. *)
let classify w ~bench_send =
  let up = up_count w in
  let recovered = up > w.up in
  w.up <- up;
  let ex, au = bank_reading w in
  let closed = au > w.audits in
  let exchanged = ex <> w.exchanges in
  w.exchanges <- ex;
  w.audits <- au;
  let auditing = Zmail.Bank.audit_in_progress (Zmail.World.bank w.world) in
  let froze = (w.auditing || auditing) && freeze_changed w in
  w.auditing <- auditing;
  let d = delivered w in
  let delivered_now = d > w.delivered in
  w.delivered <- d;
  let started, busy = serve_reading w in
  let serving = started <> w.serve_started || busy || w.serve_busy in
  w.serve_started <- started;
  w.serve_busy <- busy;
  let sub = submitted w in
  let sent = sub <> w.submitted in
  w.submitted <- sub;
  if recovered then Recover
  else if closed then Audit_close
  else if froze then Audit_freeze
  else if exchanged then Bank
  else if delivered_now then Deliver
  else if bench_send then Generator
  else if serving then Serve_session
  else if sent then Send
  else Other

(* [epoch] lets a sharded caller mark the first callback after a merge
   barrier: its interval spans other shards' steps and the merge, not
   this shard's work, so it is not timed. *)
let attach ?crashes ?submits ?(after = ignore) ?epoch t world =
  let w = make_watch ?crashes ?submits world in
  let engine = Zmail.World.engine world in
  let last_epoch = ref (-1) in
  Sim.Engine.set_monitor engine
    (Some
       (fun ~id:_ ~at:_ ~wall:_ ->
         let now = now_ns () in
         let layer = classify w ~bench_send:(t.nested > 0) in
         let fresh =
           match epoch with
           | None -> false
           | Some e ->
               let e = e () in
               let fresh = e <> !last_epoch in
               last_epoch := e;
               fresh
         in
         if not fresh then begin
           let dt = now - t.mark in
           charge t layer (dt - t.nested);
           Hist.add t.callbacks dt;
           t.busy <- t.busy + dt
         end;
         t.nested <- 0;
         let live = Sim.Engine.live engine in
         if live > t.live_max then t.live_max <- live;
         after ();
         let fin = now_ns () in
         t.overhead <- t.overhead + (fin - now);
         t.mark <- fin))
