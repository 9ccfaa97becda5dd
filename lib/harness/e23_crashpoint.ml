(* E23: durable write-ahead billing logs under disk-fault injection,
   swept over an exhaustive grid of crash points.  Every compliant
   kernel and the bank keep a WAL on a simulated storage device
   (Sim.Disk); the Crashpoint driver crashes one victim at the p-th
   event boundary, recovery replays the surviving log, and every world
   runs the online checkers and is checked at quiescence.  The grid
   crosses crash-point density (every boundary vs sampled) x
   disk-fault level (reliable devices at group 1; torn final appends
   at group 4; torn plus bit rot at group 8) x mesh chaos (calm vs a
   lossy bank link).  A
   resident cheater (ISP 1, Fake_receives) keeps the residue oracle
   sharp: residue must equal exactly what the cheat minted, in every
   cell, whichever victim crashed wherever. *)

let hour = Sim.Engine.hour

type density = Dense  (* stride 1: every event boundary *) | Sampled

type cell = {
  label : string;
  density : density;
  plan : Sim.Disk.plan;
  wal_group : int;
  chaos : bool;  (* lossy bank link *)
}

let fault_levels =
  [
    ("disk ok g1", Sim.Disk.reliable, 1);
    ("torn g4", Sim.Disk.plan ~torn:0.6 (), 4);
    ("torn+rot g8", Sim.Disk.plan ~torn:0.6 ~rot:0.3 (), 8);
  ]

let cell ~density ~chaos (flabel, plan, wal_group) =
  {
    label =
      Printf.sprintf "%s %s %s"
        (match density with Dense -> "every" | Sampled -> "sampled")
        flabel
        (if chaos then "chaos" else "calm");
    density;
    plan;
    wal_group;
    chaos;
  }

(* Default grid: every fault level swept densely once (two calm, one
   under chaos — ISSUE's "every event boundary" coverage), and the
   complementary chaos combinations at sampled density.  [full] runs
   the complete density x fault x chaos cross densely. *)
let cells ~full =
  if full then
    List.concat_map
      (fun lvl -> [ cell ~density:Dense ~chaos:false lvl; cell ~density:Dense ~chaos:true lvl ])
      fault_levels
  else
    match fault_levels with
    | [ ok; torn; rot ] ->
        [
          cell ~density:Dense ~chaos:false ok;
          cell ~density:Dense ~chaos:false torn;
          cell ~density:Dense ~chaos:true rot;
          cell ~density:Sampled ~chaos:true ok;
          cell ~density:Sampled ~chaos:true torn;
          cell ~density:Sampled ~chaos:false rot;
        ]
    | _ -> assert false

let n_isps = 3
let cheater = 1
let users_per_isp = 3
let sends_per_user = 4
let fake_receives_per_day = 2
let days = 1.2 (* crosses one midnight so the cheat actually mints *)
let downtime = 1. *. hour

let build ~tracer ~seed ~c () =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp) with
        Zmail.World.seed;
        tracer = Some tracer;
        audit_period = Some (6. *. hour);
        disk = Some c.plan;
        wal_group = c.wal_group;
        bank_fault =
          (if c.chaos then
             Sim.Fault.plan ~drop:0.08 ~duplicate:0.08 ~delay_prob:0.08
               ~delay_max:5. ()
           else Sim.Fault.reliable);
        customize_isp =
          (fun i cfg ->
            (* Lean pools so the §4.3 buy/sell exchanges fire within
               the short horizon — live bank billing for the crash to
               land in the middle of. *)
            let cfg =
              {
                cfg with
                Zmail.Isp.initial_avail = 150;
                minavail = 200;
                buy_amount = 300;
              }
            in
            if i = cheater then
              { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives fake_receives_per_day }
            else cfg);
      }
  in
  Cell.rotation world ~sends_per_user ~days ~offset:307. ~step:5 ignore;
  world

let run_cell ~tracer ~persist ~seed c =
  let build = build ~tracer ~seed ~c in
  (* A sampled cell still spreads its crash points across the whole
     timeline: the stride targets ~16 points over the baseline count.
     The sweep re-measures the baseline itself; this probe only sizes
     the stride, deterministically. *)
  let stride =
    match c.density with
    | Dense -> 1
    | Sampled -> max 1 (Crashpoint.baseline_events ~build ~days / 16)
  in
  Crashpoint.sweep ~persist ~label_prefix:c.label ~build ~days ~downtime
    ~honest:(fun i -> i <> cheater)
    ~n_isps ~stride ()

let run ?obs ?persist ?(seed = 23) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  (* Every swept world, baselines included, emits into the front end's
     tracer, so crash and recovery events reach its export. *)
  let tracer = Obs.Run.tracer_or obs ~capacity:512 in
  let cells = cells ~full in
  let reports =
    List.mapi (fun k c -> (c, run_cell ~tracer ~persist ~seed:(seed + k) c)) cells
  in
  let table =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E23 (robustness): WAL crash-point sweep — exact conservation at \
            every crash point (%d ISPs x %d users, %.1f days, cheater = ISP \
            %d; victims rotate over every ISP and the bank)"
           n_isps users_per_isp days cheater)
      ~columns:
        [
          "cell";
          "events";
          "stride";
          "crash points";
          "isp crashes";
          "bank crashes";
          "max records replayed";
          "torn tails";
          "bytes lost";
        ]
  in
  (* The hard claims — every scheduled crash fired and was recovered,
     no recovery abandoned its WAL, money is exactly conserved in every
     run and no honest ISP was convicted — fail inside the sweep, so a
     printed row is already a pass. *)
  List.iter
    (fun (c, r) ->
      let s = Crashpoint.summarize r in
      Sim.Table.add_row table
        [
          c.label;
          Sim.Table.cell_int r.Crashpoint.baseline_events;
          Sim.Table.cell_int r.Crashpoint.stride;
          Sim.Table.cell_int s.Crashpoint.points;
          Sim.Table.cell_int s.Crashpoint.isp_crashes;
          Sim.Table.cell_int s.Crashpoint.bank_crashes;
          Sim.Table.cell_int s.Crashpoint.max_replayed;
          Sim.Table.cell_int s.Crashpoint.total_torn_tails;
          Sim.Table.cell_int s.Crashpoint.total_lost_bytes;
        ])
    reports;
  [ table ]
