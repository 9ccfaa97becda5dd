(* The four benchmark workloads.  Each builds its inputs from the seed
   alone and drives the library only through public functions; one
   call of [prepare] is the set-up of one round, and the returned
   [run] is the round's timed region.  Why each workload exists is in
   perfbench/README.md. *)

module W = Zmail.World

let hour = Sim.Engine.hour
let day = Sim.Engine.day

type size = Full | Tiny

(* Test-only interference, passed as an argument: [send_delay] runs
   inside every timed [send_email] span and [oracle] filters every op's
   verdict. *)
type inject = { send_delay : unit -> unit; oracle : bool -> bool }

let no_inject = { send_delay = ignore; oracle = Fun.id }

type ctx = { seed : int; size : size; inject : inject; probe : Probe.t option }

(* Simulated statistics of one round: deterministic for a seed, so any
   two rounds at one seed must report the same list. *)
type outcome = {
  ops : int;
  failed : int;
  stats : (string * int) list;
  digest : string;
}

(* [shard_busy] gives, after a traced round, each shard's busy host
   seconds; single-world workloads return [[||]]. *)
type job = {
  run : unit -> unit;
  check : unit -> outcome;
  shard_busy : unit -> float array;
}

type t = { name : string; prepare : ctx -> job }

let sum_stats a b =
  List.map (fun (k, v) -> (k, v + Option.value ~default:0 (List.assoc_opt k b))) a

let digest_sections sections =
  Digest.string
    (String.concat "\000" (List.concat_map (fun (n, b) -> [ n; b ]) sections))

(* ---- sends ---------------------------------------------------------- *)

type sends = {
  mutable attempted : int;
  mutable paid : int;
  mutable free : int;
  mutable rejected : int;
  mutable deferred : int;
  mutable down : int;
  mutable backpressured : int;
}

let new_sends () =
  { attempted = 0; paid = 0; free = 0; rejected = 0; deferred = 0; down = 0; backpressured = 0 }

let sends_stats s =
  [
    ("sends.attempted", s.attempted);
    ("sends.paid", s.paid);
    ("sends.free", s.free);
    ("sends.rejected", s.rejected);
    ("sends.deferred", s.deferred);
    ("sends.failed_down", s.down);
    ("sends.backpressured", s.backpressured);
  ]

let send ctx s world ~from ~to_ =
  s.attempted <- s.attempted + 1;
  let r =
    Probe.with_probe ctx.probe Probe.Send ~inside:true (fun () ->
        ctx.inject.send_delay ();
        W.send_email world ~from ~to_ ())
  in
  match r with
  | W.Submitted `Paid -> s.paid <- s.paid + 1
  | W.Submitted `Free -> s.free <- s.free + 1
  | W.Rejected _ -> s.rejected <- s.rejected + 1
  | W.Deferred_snapshot -> s.deferred <- s.deferred + 1
  | W.Failed_down -> s.down <- s.down + 1
  | W.Backpressured -> s.backpressured <- s.backpressured + 1

(* A fixed budget of sends offered over [span] seconds by [n_gen]
   self-rescheduling Poisson generators (the E17 shape: the event heap
   stays O(generators + mail in flight)). *)
let attach_generators world ~rng ~budget ~n_gen ~span ~stagger send_one =
  let engine = W.engine world in
  let n_gen = min n_gen budget in
  let per_gen = budget / n_gen in
  let rate = float_of_int per_gen /. span in
  for i = 0 to n_gen - 1 do
    let quota = per_gen + if i < budget mod n_gen then 1 else 0 in
    let rec step remaining () =
      if remaining > 0 then begin
        send_one ();
        ignore
          (Sim.Engine.schedule_after engine
             ~delay:(Sim.Dist.exponential rng ~rate)
             (step (remaining - 1)))
      end
    in
    ignore (Sim.Engine.schedule_after engine ~delay:(float_of_int i *. stagger) (step quota))
  done

(* ---- per-world readings --------------------------------------------- *)

let world_stats w =
  let cfg = W.config w in
  let n = cfg.W.n_isps in
  let c = W.counters w in
  let link = W.link_stats w in
  let bank = Zmail.Bank.stats (W.bank w) in
  let mesh = W.mesh w in
  let fold f = List.fold_left (fun acc i -> acc + f i) 0 (List.init n Fun.id) in
  let kernels f = fold (fun i -> if cfg.W.compliant.(i) then f (W.isp w i) else 0) in
  let disk_sum f =
    let dev = function Some d -> f d | None -> 0 in
    kernels (fun k -> dev (Zmail.Isp.disk k)) + dev (Zmail.Bank.disk (W.bank w))
  in
  let slo k = match W.serve w with Some d -> Serve.Slo.count (Serve.Dispatch.slo d) k | None -> 0 in
  [
    ("events", Sim.Engine.events_fired (W.engine w));
    ("delivered", c.W.ham_delivered + c.W.spam_delivered);
    ("mail.blocked", c.W.blocked_balance + c.W.blocked_limit);
    ("mail.deferred", c.W.deferred_sends);
    ("audits", List.length (W.audit_results w));
    ("bank.exchanges", bank.Zmail.Bank.buys + bank.Zmail.Bank.buys_rejected + bank.Zmail.Bank.sells);
    ("bank.retransmits", Sim.Stats.Counter.value link.W.retransmits);
    ("smtp.bounced", fold (fun i -> (Smtp.Mta.stats (W.mta w i)).Smtp.Mta.bounced));
    ( "fault.mesh.lost",
      Sim.Fault.Mesh.link_dropped mesh + Sim.Fault.Mesh.outage_dropped mesh
      + Sim.Fault.Mesh.partition_dropped mesh );
    ("fault.mesh.delayed", Sim.Fault.Mesh.link_delayed mesh);
    ("serve.admitted", List.fold_left (fun acc k -> acc + slo k) 0 Serve.Slo.classes);
    ("serve.sessions", match W.serve w with Some d -> Serve.Dispatch.sessions_started d | None -> 0);
    ("smtp.retry.parked", slo Serve.Slo.Retried);
    ("wal.appends", kernels Zmail.Isp.wal_appended + Zmail.Bank.wal_appended (W.bank w));
    ("disk.flushes", disk_sum Sim.Disk.flushes);
    ("disk.bytes", disk_sum Sim.Disk.durable_size);
  ]

let honest_convictions w ~honest =
  List.fold_left
    (fun acc r -> acc + List.length (List.filter honest r.Zmail.Bank.convicted))
    0 (W.audit_results w)

(* Run [f], turning a raised invariant violation or failure into a
   failed oracle instead of an aborted benchmark. *)
let guarded f =
  match f () with
  | () -> None
  | exception (Obs.Invariant.Violation v) ->
      Some (Format.asprintf "%a" Obs.Invariant.pp_violation v)
  | exception Failure m -> Some m
  | exception Invalid_argument m -> Some m

let report_failure name = function
  | Some m -> prerr_endline ("oracle: " ^ name ^ ": " ^ m)
  | None -> ()

(* ---- zipf_scale ----------------------------------------------------- *)

let zipf_cheater = 1

let zipf_prepare ctx =
  let n_isps, users_per_isp, sends_per_user =
    match ctx.size with Full -> (100, 1000, 3) | Tiny -> (10, 50, 2)
  in
  let days = 2.0 in
  let world =
    Probe.with_probe ctx.probe Probe.Create ~inside:false (fun () ->
        W.create
          {
            (W.default_config ~n_isps ~users_per_isp) with
            W.seed = ctx.seed;
            audit_period = Some (12. *. hour);
            retain_mail = false;
            customize_isp =
              (fun i cfg ->
                let cfg =
                  {
                    cfg with
                    Zmail.Isp.daily_limit = 1_000_000;
                    initial_avail = 2 * users_per_isp;
                    minavail = users_per_isp;
                    buy_amount = 5 * users_per_isp;
                    maxavail = 20 * users_per_isp;
                  }
                in
                if i = zipf_cheater then
                  { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives 3 }
                else cfg);
          })
  in
  let checkers = W.attach_invariants world in
  let rng = Sim.Engine.rng (W.engine world) in
  let universe = n_isps * users_per_isp in
  (* A stride coprime to the universe scatters Zipf ranks over ISPs so
     the heavy head is not one hot ISP. *)
  let stride =
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let rec find c = if gcd c universe = 1 then c else find (c + 1) in
    find 7919
  in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  let rank = Sim.Dist.zipf ~n:universe ~s:1.1 in
  let s = new_sends () in
  attach_generators world ~rng ~budget:(universe * sends_per_user) ~n_gen:64
    ~span:(0.9 *. days *. day) ~stagger:13. (fun () ->
      let g = (rank rng - 1) * stride mod universe in
      let t = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
      let t = if t >= g then t + 1 else t in
      send ctx s world ~from:(of_global g) ~to_:(of_global t));
  Option.iter (fun p -> Probe.attach p world) ctx.probe;
  let error = ref None in
  let run () =
    Option.iter (fun p -> p.Probe.mark <- Probe.now_ns ()) ctx.probe;
    error :=
      guarded (fun () ->
          W.run_days world (days +. 0.5);
          W.run_until_quiet world)
  in
  let check () =
    Sim.Engine.set_monitor (W.engine world) None;
    let error =
      match !error with
      | Some _ as e -> e
      | None -> guarded (fun () -> W.check_invariants ~quiescent:true world)
    in
    let residue = W.epenny_residue world and minted = W.cheat_minted world in
    let convictions = honest_convictions world ~honest:(fun i -> i <> zipf_cheater) in
    let silent = List.filter (fun c -> Obs.Invariant.checks c = 0) checkers in
    let checks = List.fold_left (fun a c -> a + Obs.Invariant.checks c) 0 checkers in
    List.iter Obs.Invariant.detach checkers;
    let ok =
      error = None && residue = minted && convictions = 0 && silent = []
      && s.attempted = universe * sends_per_user
    in
    report_failure "zipf_scale" error;
    let ok = ctx.inject.oracle ok in
    {
      ops = s.attempted;
      failed = (if ok then 0 else s.attempted);
      stats =
        sends_stats s @ world_stats world
        @ [ ("obs.checks", checks); ("residue", residue); ("minted", minted) ];
      digest = digest_sections (W.capture world);
    }
  in
  { run; check; shard_busy = (fun () -> [||]) }

(* ---- serving_lossy -------------------------------------------------- *)

let serve_config =
  {
    Serve.Config.default with
    Serve.Config.queue_depth = 16;
    max_sessions = 2;
    rtt = (fun rng -> 0.05 +. Sim.Dist.exponential rng ~rate:8.);
    bytes_per_sec = 20_000.;
    sample_period = 30.;
  }

let serving_cell ctx ~seed ~duration =
  let n_isps = 4 and users_per_isp = 25 and noncompliant = 3 in
  let world =
    Probe.with_probe ctx.probe Probe.Create ~inside:false (fun () ->
        W.create
          {
            (W.default_config ~n_isps ~users_per_isp) with
            W.seed;
            compliant = Array.init n_isps (fun i -> i <> noncompliant);
            serving = Some serve_config;
            mesh_default = Sim.Fault.plan ~drop:0.08 ~delay_prob:0.15 ~delay_max:5.0 ();
            audit_period = Some 150.;
            freeze_duration = 5.;
            pool_check_period = 60.;
            customize_isp =
              (fun _ cfg ->
                {
                  cfg with
                  Zmail.Isp.initial_avail = 10;
                  minavail = 20;
                  buy_amount = 100;
                  maxavail = 120;
                });
          })
  in
  let checkers = W.attach_invariants world in
  let rng = Sim.Engine.rng (W.engine world) in
  let universe = n_isps * users_per_isp in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  let s = new_sends () in
  (* 27 msg/s: just below the knee of 12 remote lanes x 2 sessions. *)
  attach_generators world ~rng ~budget:(int_of_float (27. *. duration)) ~n_gen:16
    ~span:(0.9 *. duration) ~stagger:0.37 (fun () ->
      let g = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 1) in
      let t = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
      let t = if t >= g then t + 1 else t in
      send ctx s world ~from:(of_global g) ~to_:(of_global t));
  (world, checkers, s)

let serving_prepare ctx =
  let cells, duration = match ctx.size with Full -> (4, 300.) | Tiny -> (1, 60.) in
  (* Cell seeds come from the round seed through the library's own
     stream derivation, so adjacent round seeds give unrelated cells. *)
  let cells =
    List.init cells (fun k ->
        let seed = Int64.to_int (Sim.Rng.int64 (Sim.Rng.stream_n ~seed:ctx.seed ~tag:0x5e12 k)) land max_int in
        serving_cell ctx ~seed ~duration)
  in
  let errors = Array.make (List.length cells) None in
  let run () =
    List.iteri
      (fun k (world, _, _) ->
        Option.iter (fun p -> Probe.attach p world; p.Probe.mark <- Probe.now_ns ()) ctx.probe;
        errors.(k) <-
          guarded (fun () ->
              W.run_days world (duration /. day);
              W.run_until_quiet world);
        Sim.Engine.set_monitor (W.engine world) None)
      cells
  in
  let check () =
    let outcomes =
      List.mapi
        (fun k (world, checkers, s) ->
          if errors.(k) = None then
            errors.(k) <- guarded (fun () -> W.check_invariants ~quiescent:true world);
          let residue = W.epenny_residue world in
          let silent = List.filter (fun c -> Obs.Invariant.checks c = 0) checkers in
          let checks = List.fold_left (fun a c -> a + Obs.Invariant.checks c) 0 checkers in
          List.iter Obs.Invariant.detach checkers;
          let ok = errors.(k) = None && residue = 0 && silent = [] in
          report_failure "serving_lossy" errors.(k);
          let ok = ctx.inject.oracle ok in
          {
            ops = s.attempted;
            failed = (if ok then 0 else s.attempted);
            stats =
              sends_stats s @ world_stats world
              @ [ ("obs.checks", checks); ("residue", residue); ("cells", 1) ];
            digest = digest_sections (W.capture world);
          })
        cells
    in
    match outcomes with
    | [] -> invalid_arg "serving_lossy: no cells"
    | o :: rest ->
        List.fold_left
          (fun acc o ->
            {
              ops = acc.ops + o.ops;
              failed = acc.failed + o.failed;
              stats = sum_stats acc.stats o.stats;
              digest = Digest.string (acc.digest ^ o.digest);
            })
          o rest
  in
  { run; check; shard_busy = (fun () -> [||]) }

(* ---- crash_sweep ---------------------------------------------------- *)

let crash_isps = 3
let crash_users = 3
let crash_cheater = 1
let crash_days = 1.2 (* crosses one midnight, so the cheat mints *)

let crash_build ctx s () =
  let world =
    W.create
      {
        (W.default_config ~n_isps:crash_isps ~users_per_isp:crash_users) with
        W.seed = ctx.seed;
        audit_period = Some (6. *. hour);
        disk = Some (Sim.Disk.plan ~torn:0.6 ());
        wal_group = 4;
        bank_fault =
          Sim.Fault.plan ~drop:0.08 ~duplicate:0.08 ~delay_prob:0.08 ~delay_max:5. ();
        customize_isp =
          (fun i cfg ->
            let cfg =
              { cfg with Zmail.Isp.initial_avail = 150; minavail = 200; buy_amount = 300 }
            in
            if i = crash_cheater then
              { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives 2 }
            else cfg);
      }
  in
  (* Every user sends on a fixed cadence to a rotating correspondent
     (the E23 shape), so every op drains to quiescence. *)
  let engine = W.engine world in
  let universe = crash_isps * crash_users in
  let of_global g = (g / crash_users, g mod crash_users) in
  let sends_per_user = 4 in
  for g = 0 to universe - 1 do
    for k = 0 to sends_per_user - 1 do
      let at =
        (float_of_int k *. crash_days *. day /. float_of_int sends_per_user)
        +. (float_of_int g *. 307.)
      in
      ignore
        (Sim.Engine.schedule_after engine ~delay:at (fun () ->
             let target = (g + (5 * k) + 1) mod universe in
             let target = if target = g then (target + 1) mod universe else target in
             send ctx s world ~from:(of_global g) ~to_:(of_global target)))
    done
  done;
  world

type victim = Isp of int | Bank

(* One op: build, crash [victim] at the [point]-th event boundary,
   recover, drain, check. *)
let crash_op ctx s ~point ~victim =
  let world =
    Probe.with_probe ctx.probe Probe.Create ~inside:false (crash_build ctx s)
  in
  let engine = W.engine world in
  let fired = ref 0 in
  let crashed = ref false in
  let crash () =
    incr fired;
    if !fired = point then begin
      crashed := true;
      match victim with
      | Isp i -> W.crash_isp world ~isp:i ~downtime:hour
      | Bank -> W.crash_bank world ~downtime:hour
    end
  in
  (match ctx.probe with
  | Some p ->
      Probe.attach ~crashes:true ~after:crash p world;
      p.Probe.mark <- Probe.now_ns ()
  | None ->
      Sim.Engine.set_monitor engine
        (Some
           (fun ~id:_ ~at:_ ~wall:_ ->
             crash ();
             if !crashed then Sim.Engine.set_monitor engine None)));
  let error =
    guarded (fun () ->
        W.run_days world crash_days;
        W.run_until_quiet world)
  in
  Sim.Engine.set_monitor engine None;
  Probe.with_probe ctx.probe Probe.Check ~inside:false @@ fun () ->
  let link = W.link_stats world in
  let v = Sim.Stats.Counter.value in
  let recovered =
    match victim with
    | Isp _ -> v link.W.recoveries = v link.W.crashes
    | Bank -> v link.W.bank_recoveries = v link.W.bank_crashes
  in
  let fallbacks = v link.W.wal_fallbacks in
  let residue = W.epenny_residue world and minted = W.cheat_minted world in
  let convictions = honest_convictions world ~honest:(fun i -> i <> crash_cheater) in
  let ok =
    error = None && !crashed && recovered && fallbacks = 0 && residue = minted
    && convictions = 0
  in
  report_failure "crash_sweep" error;
  let replayed =
    match victim with
    | Isp i -> Zmail.Isp.wal_replayed (W.isp world i)
    | Bank -> Zmail.Bank.wal_replayed (W.bank world)
  in
  ( ctx.inject.oracle ok,
    world_stats world
    @ [
        ("crash.points", 1);
        ("crash.isp", match victim with Isp _ -> 1 | Bank -> 0);
        ("crash.bank", match victim with Bank -> 1 | Isp _ -> 0);
        ("wal.replayed", replayed);
        ("residue", residue);
        ("minted", minted);
      ],
    digest_sections (W.capture world) )

let crash_prepare ctx =
  (* Set-up sizes the sweep: one uncrashed run counts the event
     boundaries. *)
  let baseline =
    let world =
      Probe.with_probe ctx.probe Probe.Create ~inside:false
        (crash_build { ctx with probe = None } (new_sends ()))
    in
    W.run_days world crash_days;
    W.run_until_quiet world;
    Sim.Engine.events_fired (W.engine world)
  in
  let stride = match ctx.size with Full -> 1 | Tiny -> max 1 (baseline / 12) in
  let s = new_sends () in
  let result = ref None in
  let run () =
    let ops = ref 0 and failed = ref 0 in
    let stats = ref [] and digest = ref "" in
    let k = ref 0 in
    let point = ref stride in
    while !point <= baseline do
      (* Round-robin victims: every ISP, then the bank. *)
      let victim = if !k mod (crash_isps + 1) = crash_isps then Bank else Isp (!k mod (crash_isps + 1)) in
      let ok, st, d = crash_op ctx s ~point:!point ~victim in
      incr ops;
      if not ok then incr failed;
      stats := (if !stats = [] then st else sum_stats !stats st);
      digest := Digest.string (!digest ^ d);
      incr k;
      point := !point + stride
    done;
    result :=
      Some
        {
          ops = !ops;
          failed = !failed;
          stats = sends_stats s @ !stats @ [ ("baseline.events", baseline) ];
          digest = !digest;
        }
  in
  let check () =
    match !result with Some o -> o | None -> invalid_arg "crash_sweep: not run"
  in
  { run; check; shard_busy = (fun () -> [||]) }

(* ---- sharded_1dom --------------------------------------------------- *)

(* One stepping domain: on shared cores a two-domain round is slowed
   whenever either core is; on a 2-vCPU VM its ten-seed spread of
   ops_per_s was 12-22% of the median, too wide to bound. *)
let sharded_prepare ctx =
  let groups, isps_per_group, users_per_isp =
    match ctx.size with Full -> (4, 4, 1500) | Tiny -> (2, 2, 50)
  in
  let cfg =
    {
      (Zmail.Parworld.default_config ~groups ~isps_per_group ~users_per_isp) with
      Zmail.Parworld.seed = ctx.seed;
    }
  in
  let pw =
    Probe.with_probe ctx.probe Probe.Create ~inside:false (fun () -> Zmail.Parworld.create cfg)
  in
  let shards = Zmail.Parworld.shards pw in
  (* One probe per shard, so a shard's intervals never absorb another
     shard's stepping.  The barrier count marks the first callback of a
     shard after each merge, whose interval spans the other shards'
     steps and the merge. *)
  let shard_probes =
    match ctx.probe with
    | None -> [||]
    | Some _ ->
        Array.map
          (fun w ->
            let p = Probe.create () in
            Probe.attach ~submits:true ~epoch:(fun () -> Zmail.Parworld.barriers pw) p w;
            p)
          shards
  in
  let error = ref None in
  let run () =
    error := guarded (fun () -> Zmail.Parworld.run pw ~domains:1)
  in
  let budget = groups * isps_per_group * users_per_isp * cfg.Zmail.Parworld.sends_per_user in
  let check () =
    Array.iter (fun w -> Sim.Engine.set_monitor (W.engine w) None) shards;
    Option.iter (fun p -> Array.iter (Probe.merge_into p) shard_probes) ctx.probe;
    let residue = Zmail.Parworld.residue pw in
    let ok =
      !error = None && residue = 0
      && Zmail.Parworld.cross_injected pw = Zmail.Parworld.cross_sent pw
      && Zmail.Parworld.barriers pw > 0
    in
    report_failure "sharded_1dom" !error;
    let ok = ctx.inject.oracle ok in
    let per_shard =
      Array.fold_left
        (fun acc w -> if acc = [] then world_stats w else sum_stats acc (world_stats w))
        [] shards
    in
    {
      ops = budget;
      failed = (if ok then 0 else budget);
      stats =
        per_shard
        @ [
            ("parworld.cross_sent", Zmail.Parworld.cross_sent pw);
            ("parworld.cross_injected", Zmail.Parworld.cross_injected pw);
            ("parworld.barriers", Zmail.Parworld.barriers pw);
            ("residue", residue);
          ];
      digest = digest_sections (Zmail.Parworld.capture pw);
    }
  in
  { run; check; shard_busy = (fun () -> Array.map Probe.busy_s shard_probes) }

let all =
  [
    { name = "zipf_scale"; prepare = zipf_prepare };
    { name = "serving_lossy"; prepare = serving_prepare };
    { name = "crash_sweep"; prepare = crash_prepare };
    { name = "sharded_1dom"; prepare = sharded_prepare };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
