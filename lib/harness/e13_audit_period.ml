let periods =
  [
    ("6 hours", 6. *. Sim.Engine.hour);
    ("1 day", Sim.Engine.day);
    ("3.5 days", 3.5 *. Sim.Engine.day);
    ("7 days", 7. *. Sim.Engine.day);
  ]

let fake_receives_per_day = 3
let days = 7.5

let run_period ~seed period =
  let n_isps = 3 in
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp:20) with
        Zmail.World.seed;
        audit_period = Some period;
        customize_isp =
          (fun i cfg ->
            if i = 1 then
              { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives fake_receives_per_day }
            else cfg);
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  Zmail.World.attach_user_traffic world ();
  (* E13 makes no buy or sell, so exactly-once has nothing to watch
     (DESIGN §5). *)
  Cell.finish_live
    ~name:(Printf.sprintf "E13 period %.0f s" period)
    ~persist:Checkpoint.none ~idle:[ "exactly-once" ] ~days world checkers;
  let audits = Zmail.World.audit_results_timed world in
  let detection =
    List.find_map
      (fun (time, r) -> if r.Zmail.Bank.suspects <> [] then Some time else None)
      audits
  in
  let stolen_before_detection =
    (* The cheat mints (peers) * k e-pennies per elapsed day. *)
    match detection with
    | None -> fake_receives_per_day * (n_isps - 1) * int_of_float days
    | Some time ->
        fake_receives_per_day * (n_isps - 1) * int_of_float (time /. Sim.Engine.day)
  in
  let bank_stats = Zmail.Bank.stats (Zmail.World.bank world) in
  let c = Zmail.World.counters world in
  ( List.length audits,
    bank_stats.Zmail.Bank.messages_in + bank_stats.Zmail.Bank.messages_out,
    c.Zmail.World.deferred_sends,
    detection,
    stolen_before_detection )

let run ?(seed = 13) () =
  let table =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E13 (ablation): audit period vs settlement cost and fraud exposure \
            (3 ISPs, one minting %d e-pennies/peer/day, %.1f days)"
           fake_receives_per_day days)
      ~columns:
        [
          "audit period";
          "audits";
          "settlement msgs";
          "sends frozen";
          "cheater first flagged";
          "e-pennies minted before detection";
        ]
  in
  List.iteri
    (fun k (label, period) ->
      let audits, messages, deferred, detection, stolen =
        run_period ~seed:(seed + k) period
      in
      Sim.Table.add_row table
        [
          label;
          Sim.Table.cell_int audits;
          Sim.Table.cell_int messages;
          Sim.Table.cell_int deferred;
          (match detection with
          | Some time -> Printf.sprintf "day %.1f" (time /. Sim.Engine.day)
          | None -> "not within horizon");
          Sim.Table.cell_int stolen;
        ])
    periods;
  [ table ]
