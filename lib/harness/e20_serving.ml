(* E20: serving-path tail latency under offered load — the knee of the
   admission/session machinery measured, clean and under mesh chaos.

   Every cell is a fresh 4-ISP world with the serving path enabled
   ([World.config.serving]): remote deliveries flow through bounded
   per-lane admission queues into at most [max_sessions] concurrent
   phase-by-phase SMTP sessions, and every completion records its
   first-admission-to-completion latency into a per-class histogram
   ({!Serve.Slo}).  A fleet of Poisson generators offers a fixed send
   budget at a swept aggregate rate: well below the lanes' service
   capacity, at it, and beyond it.  The chaos variant additionally runs
   the same sweep over a lossy mesh ([Sim.Fault.Mesh]): lost
   connections tempfail at session open, re-enter admission through the
   MTA's capped-backoff retry queue, and pile onto already-full lanes —
   the retry-storm regime where the tail collapses first.

   What each cell must show:
   - the knee: p99/p999 grow modestly until offered load crosses the
     service capacity, then the queue saturates — admissions refuse
     (backpressure, paid sends refunded) and the Retried/Bounced
     classes fill;
   - conservation: backpressure refunds, retry bounces and chaos
     refunds all unwind exactly — the e-penny residue is zero in every
     cell (no cheater exists here);
   - one non-compliant ISP keeps the Unpaid class populated, so the
     per-class split itself is exercised. *)

let day = Sim.Engine.day

let n_isps = 4
let users_per_isp = 25
let noncompliant = 3  (* its mail is unpaid: populates the Unpaid class *)
let generators = 16
let duration = 300.  (* seconds of offered load per cell *)

(* Slow, high-variance round trips make a session take ~1 s (6 RTTs +
   body wire time), so two sessions per lane across 12 remote lanes
   saturate near 30 msg/s aggregate — a knee the sweep can actually
   cross within a 300 s cell. *)
let serve_config =
  {
    Serve.Config.default with
    Serve.Config.queue_depth = 16;
    max_sessions = 2;
    rtt = (fun rng -> 0.05 +. Sim.Dist.exponential rng ~rate:8.);
    bytes_per_sec = 20_000.;
    sample_period = 30.;
  }

let chaos_plan = Sim.Fault.plan ~drop:0.08 ~delay_prob:0.15 ~delay_max:5.0 ()

(* Offered aggregate send rates (msg/s); ~3/4 of sends are remote and
   the 12 remote lanes serve ~2 sessions/s each, so the knee sits near
   the "1.2x" row.  [full] pushes one row deeper into overload. *)
let loads ~full =
  [ ("0.3x", 9.); ("0.6x", 18.); ("0.9x", 27.); ("1.2x", 36.) ]
  @ if full then [ ("1.5x", 45.) ] else []

let fmt_q s = if Float.is_nan s then "-" else Printf.sprintf "%.3f" s

(* One cell: its admission row, its per-class latency rows and its
   metrics. *)
let run_cell ~tracer ~persist ~seed ~label ~rate ~chaos =
  let compliant = Array.init n_isps (fun i -> i <> noncompliant) in
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp) with
        Zmail.World.seed;
        compliant;
        serving = Some serve_config;
        mesh_default = (if chaos then chaos_plan else Sim.Fault.reliable);
        (* One audit lands mid-cell (short freeze: the cell is 300 s,
           not a day), so snapshot freezes, deferred sends and the
           antisymmetry checker all run against the serving path. *)
        audit_period = Some 150.;
        freeze_duration = 5.;
        (* Lean pools checked every minute keep the §4.3 buy/sell loop
           live inside a 300 s cell — traffic for the exactly-once
           checker (the E16 idiom at cell scale). *)
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
        tracer = Some tracer;
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  let rng = Sim.Engine.rng (Zmail.World.engine world) in
  let universe = n_isps * users_per_isp in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  let attempts = ref 0 in
  let paid = ref 0 in
  let free = ref 0 in
  let backpressured = ref 0 in
  let blocked = ref 0 in
  (* A fixed budget (deterministic cell size) offered over the first
     90% of [duration] by uniform senders. *)
  Cell.fleet (Zmail.World.engine world) ~generators
    ~total:(int_of_float (rate *. duration)) ~span:duration ~spacing:0.37
    (fun () ->
      let g = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 1) in
      let t = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
      let t = if t >= g then t + 1 else t in
      incr attempts;
      match Zmail.World.send_email world ~from:(of_global g) ~to_:(of_global t) () with
      | Zmail.World.Submitted `Paid -> incr paid
      | Zmail.World.Submitted `Free -> incr free
      | Zmail.World.Backpressured -> incr backpressured
      | Zmail.World.Rejected _ -> incr blocked
      | Zmail.World.Deferred_snapshot | Zmail.World.Failed_down -> ());
  (* Drain: in-flight sessions, backoff chains and bounce refunds all
     settle before anything is measured. *)
  Cell.finish ~name:("E20 " ^ label) ~persist ~label ~days:(duration /. day)
    world checkers;
  let dispatch =
    match Zmail.World.serve world with
    | Some d -> d
    | None -> failwith "E20: serving path not attached"
  in
  let slo = Serve.Dispatch.slo dispatch in
  let residue = Zmail.World.epenny_residue world in
  if residue <> 0 then
    failwith
      (Printf.sprintf "E20: cell %s%s leaked %d e-pennies" label
         (if chaos then " (chaos)" else "")
         residue);
  let mesh = if chaos then "chaos" else "calm" in
  let n = Sim.Table.cell_int in
  ( [
      label;
      mesh;
      n !attempts;
      n !paid;
      n !free;
      n !backpressured;
      n !blocked;
      n (Serve.Dispatch.deferred dispatch);
      n (Serve.Dispatch.sessions_started dispatch);
      n (Zmail.World.counters world).Zmail.World.ham_delivered;
      n (Serve.Slo.count slo Serve.Slo.Bounced);
      n residue;
    ],
    List.filter_map
      (fun k ->
        let count = Serve.Slo.count slo k in
        if count = 0 then None
        else
          Some
            [
              label;
              mesh;
              Serve.Slo.klass_name k;
              n count;
              fmt_q (Serve.Slo.quantile slo k 0.5);
              fmt_q (Serve.Slo.quantile slo k 0.99);
              fmt_q (Serve.Slo.quantile slo k 0.999);
            ])
      Serve.Slo.classes,
    Obs.Metrics.to_table (Zmail.World.metrics world) )

let cell_label ~load ~chaos = load ^ if chaos then "/chaos" else "/calm"

let run ?obs ?persist ?(seed = 20) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let tracer = Obs.Run.tracer_or obs ~capacity:512 in
  let cells =
    List.concat_map
      (fun chaos -> List.map (fun l -> (l, chaos)) (loads ~full))
      [ false; true ]
  in
  let results =
    List.mapi
      (fun k ((load, rate), chaos) ->
        run_cell ~tracer ~persist ~seed:(seed + k)
          ~label:(cell_label ~load ~chaos) ~rate ~chaos)
      cells
  in
  let summary =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E20 (serving): admission and backpressure per cell (4 ISPs x 25 \
            users, ISP %d non-compliant, depth %d, %d sessions/lane, %.0f s \
            of load per cell)"
           noncompliant serve_config.Serve.Config.queue_depth
           serve_config.Serve.Config.max_sessions duration)
      ~columns:
        [
          "load";
          "mesh";
          "sends";
          "paid";
          "free";
          "backpressured";
          "blocked";
          "deferred";
          "sessions";
          "delivered";
          "bounced";
          "residue";
        ]
  in
  let latency =
    Sim.Table.create
      ~title:
        "E20 (serving): per-class latency quantiles, seconds from first \
         admission to completion (log-scale histogram, ~12% relative error)"
      ~columns:[ "load"; "mesh"; "class"; "count"; "p50"; "p99"; "p999" ]
  in
  List.iter
    (fun (row, rows, _) ->
      Sim.Table.add_row summary row;
      List.iter (Sim.Table.add_row latency) rows)
    results;
  Cell.tables obs [ summary; latency ] (List.map (fun (_, _, m) -> m) results)
