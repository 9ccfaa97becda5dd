(* The cell machinery the world-backed experiments share: the finish
   every world ends with, the generator fleet E17-E21 offer their mail
   through, the population-sized ISP pool, and the adversary grid cell
   of E18, E19 and E21. *)

let day = Sim.Engine.day

(* A violation leaves with its ring-buffer context on stderr. *)
let guard ~name f =
  try f ()
  with Obs.Invariant.Violation v ->
    Format.eprintf "%s: %a@." name Obs.Invariant.pp_violation v;
    raise (Obs.Invariant.Violation v)

let detach ~name ~idle checkers =
  List.iter
    (fun c ->
      let n = Obs.Invariant.name c in
      if Obs.Invariant.checks c = 0 && not (List.mem n idle) then
        failwith (name ^ ": checker " ^ n ^ " never ran");
      Obs.Invariant.detach c)
    checkers

let drain ~name ?(idle = []) world checkers =
  guard ~name (fun () ->
      Zmail.World.run_until_quiet world;
      Zmail.World.check_invariants ~quiescent:true world);
  let residue = Zmail.World.epenny_residue world in
  let minted = Zmail.World.cheat_minted world in
  if residue <> minted then
    failwith
      (Printf.sprintf
         "%s: e-penny residue %d at quiescence, but the cheat minted %d" name
         residue minted);
  detach ~name ~idle checkers

let finish ~name ~persist ?label ?idle ~days world checkers =
  guard ~name (fun () -> Checkpoint.drive persist ?label ~world ~days ());
  drain ~name ?idle world checkers

let finish_live ~name ~persist ?label ?(idle = []) ~days world checkers =
  guard ~name (fun () ->
      Checkpoint.drive persist ?label ~world ~days ();
      Zmail.World.check_invariants world);
  detach ~name ~idle checkers

let fleet engine ~generators ~total ~span ~spacing send =
  let rng = Sim.Engine.rng engine in
  let n_gen = Stdlib.min generators total in
  let per_gen = total / n_gen in
  let rate = float_of_int per_gen /. (0.9 *. span) in
  for i = 0 to n_gen - 1 do
    let budget = per_gen + if i < total mod n_gen then 1 else 0 in
    let rec step remaining () =
      if remaining > 0 then begin
        send ();
        ignore
          (Sim.Engine.schedule_after engine
             ~delay:(Sim.Dist.exponential rng ~rate)
             (step (remaining - 1)))
      end
    in
    ignore
      (Sim.Engine.schedule_after engine ~delay:(float_of_int i *. spacing)
         (step budget))
  done

let zipf_fleet world ~generators ~stride_from ~sends_per_user ~days on_result =
  let cfg = Zmail.World.config world in
  let users_per_isp = cfg.Zmail.World.users_per_isp in
  let universe = cfg.Zmail.World.n_isps * users_per_isp in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  let engine = Zmail.World.engine world in
  let rng = Sim.Engine.rng engine in
  let stride =
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let rec find c = if gcd c universe = 1 then c else find (c + 1) in
    find stride_from
  in
  (* One shared sampler: the O(universe) cdf is built once and each
     draw is a binary search. *)
  let rank = Sim.Dist.zipf ~n:universe ~s:1.1 in
  fleet engine ~generators ~total:(universe * sends_per_user)
    ~span:(days *. day) ~spacing:13. (fun () ->
      let g = (rank rng - 1) * stride mod universe in
      let t = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
      let t = if t >= g then t + 1 else t in
      on_result
        (Zmail.World.send_email world ~from:(of_global g) ~to_:(of_global t) ()))

let rotation world ~sends_per_user ~days ~offset ~step on_result =
  let cfg = Zmail.World.config world in
  let users_per_isp = cfg.Zmail.World.users_per_isp in
  let universe = cfg.Zmail.World.n_isps * users_per_isp in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  let engine = Zmail.World.engine world in
  for g = 0 to universe - 1 do
    for k = 0 to sends_per_user - 1 do
      let at =
        (float_of_int k *. days *. day /. float_of_int sends_per_user)
        +. (float_of_int g *. offset)
      in
      ignore
        (Sim.Engine.schedule_after engine ~delay:at (fun () ->
             let target = (g + (step * k) + 1) mod universe in
             let target = if target = g then (target + 1) mod universe else target in
             on_result
               (Zmail.World.send_email world ~from:(of_global g)
                  ~to_:(of_global target) ())))
    done
  done

let pool (world : Zmail.World.config) cfg =
  let u = Stdlib.max world.users_per_isp ((Zmail.World.auto_topup + 1) / 2) in
  {
    cfg with
    Zmail.Isp.daily_limit = 1_000_000;
    initial_avail = 2 * u;
    minavail = u;
    buy_amount = 5 * u;
    maxavail = 20 * u;
  }

let days = 2.0
let audit_period = 6. *. Sim.Engine.hour

type fault_level = { flabel : string; mesh : Sim.Fault.plan; partitioned : bool }

let calm = { flabel = "calm"; mesh = Sim.Fault.reliable; partitioned = false }

let lossy =
  {
    flabel = "lossy";
    mesh = Sim.Fault.plan ~drop:0.05 ~delay_prob:0.10 ~delay_max:2.0 ();
    partitioned = false;
  }

let partitioned =
  {
    flabel = "partitioned";
    mesh = Sim.Fault.plan ~drop:0.02 ~delay_prob:0.05 ~delay_max:2.0 ();
    partitioned = true;
  }

let first_heal = 0.95 *. day

let day_of = function
  | Some time -> Printf.sprintf "day %.2f" (time /. day)
  | None -> "never"

(* Group 1 is the severed side; the bank and everyone else stay in
   group 0. *)
let partition_windows ~severed ~n_isps =
  let groups = Array.make (n_isps + 1) 0 in
  List.iter (fun i -> groups.(i) <- 1) severed;
  [
    Sim.Fault.Mesh.partition ~start:(0.3 *. day) ~stop:first_heal ~groups;
    Sim.Fault.Mesh.partition ~start:(1.45 *. day) ~stop:(1.55 *. day) ~groups;
  ]

type grid = {
  name : string;
  tracer : Obs.Trace.t;
  persist : Checkpoint.t;
  n_isps : int;
  users_per_isp : int;
  sends_per_user : int;
  severed : int list;
}

type t = {
  world : Zmail.World.t;
  attempts : int;
  paid : int;
  audits : (float * Zmail.Bank.audit_result) list;
}

let run g ~seed fault ~label ?(configure = Fun.id) ?(arm = ignore)
    ?(traffic = ignore) ?(convicted = fun _ r -> r.Zmail.Bank.convicted)
    ?(adversaries = []) () =
  let { n_isps; users_per_isp; _ } = g in
  let cfg =
    {
      (Zmail.World.default_config ~n_isps ~users_per_isp) with
      Zmail.World.seed;
      audit_period = Some audit_period;
      retain_mail = false;
      tracer = Some g.tracer;
      mesh_default = fault.mesh;
      partitions =
        (if fault.partitioned then partition_windows ~severed:g.severed ~n_isps
         else []);
    }
  in
  let world =
    Zmail.World.create (configure { cfg with customize_isp = (fun _ -> pool cfg) })
  in
  arm world;
  let checkers = Zmail.World.attach_invariants world in
  let attempts = ref 0 and paid = ref 0 in
  zipf_fleet world ~generators:16 ~stride_from:97
    ~sends_per_user:g.sends_per_user ~days (fun r ->
      incr attempts;
      match r with
      | Zmail.World.Submitted `Paid -> incr paid
      | Zmail.World.Submitted `Free | Zmail.World.Deferred_snapshot
      | Zmail.World.Failed_down | Zmail.World.Backpressured
      | Zmail.World.Rejected _ ->
          ());
  traffic world;
  let name = g.name ^ " cell " ^ label in
  finish ~name ~persist:g.persist ~label ~days:(days +. 0.5) world checkers;
  let audits = Zmail.World.audit_results_timed world in
  let honest_convicted =
    List.fold_left
      (fun acc (_, r) ->
        acc
        + List.length
            (List.filter
               (fun i -> not (List.mem i adversaries))
               (convicted world r)))
      0 audits
  in
  if honest_convicted > 0 then
    failwith
      (Printf.sprintf
         "%s: %d honest conviction(s) — an audit convicted a compliant ISP" name
         honest_convicted);
  { world; attempts = !attempts; paid = !paid; audits }

let tables (obs : Obs.Run.t) ts metrics =
  match List.rev metrics with
  | last :: _ when obs.Obs.Run.metrics -> ts @ [ last ]
  | _ -> ts
