let run ?obs ?persist ?(seed = 2) ?(days = 21.) ?(isps = 4) ?(users_per_isp = 100) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let world =
    Zmail.World.create
      { (Zmail.World.default_config ~n_isps:isps ~users_per_isp) with
        Zmail.World.seed;
        tracer = obs.Obs.Run.tracer }
  in
  let checkers = Zmail.World.attach_invariants world in
  Zmail.World.attach_user_traffic world ();
  (* E2 runs no audits, so cycle-residue has nothing to watch; a small
     world (test_harness's 2 x 30) may end before any pool buys or
     sells, leaving exactly-once idle too (DESIGN §5). *)
  Cell.finish_live ~name:"E2" ~persist
    ~idle:[ "exactly-once"; "cycle-residue" ]
    ~days world checkers;
  (* Aggregate drift per behavioural profile. *)
  let by_profile = Hashtbl.create 8 in
  for i = 0 to isps - 1 do
    for u = 0 to users_per_isp - 1 do
      match Zmail.World.profile_of world ~isp:i ~user:u with
      | None -> ()
      | Some profile ->
          let summary =
            match Hashtbl.find_opt by_profile profile.Econ.User_model.name with
            | Some s -> s
            | None ->
                let s = Sim.Stats.Summary.create () in
                Hashtbl.replace by_profile profile.Econ.User_model.name s;
                s
          in
          Sim.Stats.Summary.add summary
            (float_of_int (Zmail.World.balance_drift world ~isp:i ~user:u))
    done
  done;
  let table =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E2: per-user e-penny drift after %.0f days (%d ISPs x %d users, \
            balanced organic traffic; initial balance 100)"
           days isps users_per_isp)
      ~columns:
        [ "profile"; "users"; "mean drift"; "min"; "max"; "mean drift/day" ]
  in
  let ordered = [ "light"; "average"; "heavy"; "broadcaster" ] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt by_profile name with
      | None -> ()
      | Some s ->
          Sim.Table.add_row table
            [
              name;
              Sim.Table.cell_int (Sim.Stats.Summary.count s);
              Sim.Table.cell (Sim.Stats.Summary.mean s);
              Sim.Table.cell (Sim.Stats.Summary.min s);
              Sim.Table.cell (Sim.Stats.Summary.max s);
              Sim.Table.cell (Sim.Stats.Summary.mean s /. days);
            ])
    ordered;
  let c = Zmail.World.counters world in
  let totals =
    Sim.Table.create ~title:"E2: flow totals"
      ~columns:[ "delivered"; "blocked (balance)"; "blocked (limit)"; "conservation residue" ]
  in
  Sim.Table.add_row totals
    [
      Sim.Table.cell_int c.Zmail.World.ham_delivered;
      Sim.Table.cell_int c.Zmail.World.blocked_balance;
      Sim.Table.cell_int c.Zmail.World.blocked_limit;
      Printf.sprintf "%d (in-flight mail)" (Zmail.World.epenny_residue world);
    ];
  Cell.tables obs [ table; totals ]
    [ Obs.Metrics.to_table (Zmail.World.metrics world) ]
