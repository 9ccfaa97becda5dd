let intensities = [ ("light", 10); ("medium", 40); ("heavy", 100) ]

let run_intensity ~seed users_per_isp =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:3 ~users_per_isp) with
        Zmail.World.seed;
        audit_period = Some (6. *. Sim.Engine.hour);
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  Zmail.World.attach_user_traffic world ();
  (* E10 makes no buy or sell, so exactly-once has nothing to watch
     (DESIGN §5). *)
  Cell.finish_live
    ~name:(Printf.sprintf "E10 %d users/ISP" users_per_isp)
    ~persist:Checkpoint.none ~idle:[ "exactly-once" ] ~days:1.0 world checkers;
  let c = Zmail.World.counters world in
  let audits = Zmail.World.audit_results world in
  let violations =
    List.fold_left (fun acc r -> acc + List.length r.Zmail.Bank.violations) 0 audits
  in
  let delay = Zmail.World.deferral_delay world in
  ( c.Zmail.World.ham_delivered,
    List.length audits,
    c.Zmail.World.deferred_sends,
    Sim.Stats.Summary.mean delay,
    (if Sim.Stats.Summary.count delay = 0 then 0. else Sim.Stats.Summary.max delay),
    violations )

let run ?(seed = 10) () =
  let table =
    Sim.Table.create
      ~title:
        "E10: audits under live traffic (3 ISPs, audit every 6h, 10-minute \
         freeze, one simulated day)"
      ~columns:
        [
          "traffic";
          "delivered/day";
          "audits";
          "buffered sends";
          "mean buffering delay (s)";
          "max delay (s)";
          "false violations";
        ]
  in
  List.iteri
    (fun k (label, users) ->
      let delivered, audits, deferred, mean_delay, max_delay, violations =
        run_intensity ~seed:(seed + k) users
      in
      Sim.Table.add_row table
        [
          Printf.sprintf "%s (%d users/ISP)" label users;
          Sim.Table.cell_int delivered;
          Sim.Table.cell_int audits;
          Sim.Table.cell_int deferred;
          Sim.Table.cell mean_delay;
          Sim.Table.cell max_delay;
          Sim.Table.cell_int violations;
        ])
    intensities;
  [ table ]
