type scenario = { label : string; cheats : (int * Zmail.Isp.cheat) list }

let scenarios =
  [
    { label = "all honest"; cheats = [] };
    { label = "1 ISP faking receives"; cheats = [ (3, Zmail.Isp.Fake_receives 4) ] };
    {
      label = "2 ISPs faking receives";
      cheats = [ (1, Zmail.Isp.Fake_receives 3); (5, Zmail.Isp.Fake_receives 6) ];
    };
    {
      label = "1 ISP hiding half its sends";
      cheats = [ (2, Zmail.Isp.Unreported_sends 0.5) ];
    };
    {
      label = "3 mixed cheaters";
      cheats =
        [
          (0, Zmail.Isp.Fake_receives 2);
          (4, Zmail.Isp.Unreported_sends 0.7);
          (6, Zmail.Isp.Fake_receives 5);
        ];
    };
  ]

let score ~truth ~accused =
  let tp = List.length (List.filter (fun i -> List.mem i truth) accused) in
  let fp = List.length accused - tp in
  let precision =
    if accused = [] then if truth = [] then 1. else 0.
    else float_of_int tp /. float_of_int (List.length accused)
  in
  let recall =
    if truth = [] then 1. else float_of_int tp /. float_of_int (List.length truth)
  in
  (tp, fp, precision, recall)

let run_scenario ~obs ~persist ~seed scenario =
  let n_isps = 8 in
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp:10) with
        Zmail.World.seed;
        tracer = obs.Obs.Run.tracer;
        customize_isp =
          (fun i cfg ->
            match List.assoc_opt i scenario.cheats with
            | Some cheat -> { cfg with Zmail.Isp.cheat }
            | None -> cfg);
      }
  in
  (* The honest mask excludes this scenario's cheaters, whose books are
     supposed to disagree — the audit detecting them is the claim. *)
  let checkers = Zmail.World.attach_invariants world in
  Zmail.World.attach_user_traffic world ();
  let label = scenario.label in
  Checkpoint.drive persist ~label ~world ~days:3. ();
  Zmail.World.trigger_audit world;
  (* Let the audit (requests, 10-minute freezes, replies) finish.  A
     3-day run rarely draws the default pool (1,000 pennies) below its
     200-penny band, so exactly-once may see no buy or sell (DESIGN §5). *)
  Cell.finish_live ~name:("E3 " ^ label) ~persist ~label
    ~idle:[ "exactly-once" ] ~days:0.1 world checkers;
  match Zmail.World.audit_results world with
  | [ result ] ->
      let truth = List.map fst scenario.cheats in
      let accused = result.Zmail.Bank.suspects in
      let tp, fp, precision, recall = score ~truth ~accused in
      ( List.length result.Zmail.Bank.violations,
        accused,
        tp,
        fp,
        precision,
        recall )
  | results -> failwith (Printf.sprintf "expected one audit, got %d" (List.length results))

let run ?obs ?persist ?(seed = 3) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let table =
    Sim.Table.create
      ~title:
        "E3: misbehaving-ISP detection via credit-array audit (8 ISPs x 10 \
         users, 3 days of traffic, one audit)"
      ~columns:
        [
          "scenario";
          "violating pairs";
          "suspects";
          "true pos";
          "false pos";
          "precision";
          "recall";
        ]
  in
  List.iteri
    (fun k scenario ->
      let violations, accused, tp, fp, precision, recall =
        run_scenario ~obs ~persist ~seed:(seed + k) scenario
      in
      Sim.Table.add_row table
        [
          scenario.label;
          Sim.Table.cell_int violations;
          (if accused = [] then "-"
           else String.concat "," (List.map string_of_int accused));
          Sim.Table.cell_int tp;
          Sim.Table.cell_int fp;
          Sim.Table.cell_pct precision;
          Sim.Table.cell_pct recall;
        ])
    scenarios;
  [ table ]
