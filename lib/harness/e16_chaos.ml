(* E16: chaos on the ISP<->bank channel — drops, duplicates, delays,
   corruption, an outage window and ISP crashes, swept from a reliable
   baseline to heavy abuse.  Each scenario carries a resident cheater
   (ISP 1 minting e-pennies via Fake_receives) so the table can show
   that detection survives the chaos, not merely that mail does. *)

let hour = Sim.Engine.hour
let day = Sim.Engine.day

type scenario = {
  label : string;
  plan : Sim.Fault.plan;
  crashes : (int * float * float) list;  (* ISP, crash time, downtime *)
}

let scenarios =
  [
    { label = "reliable"; plan = Sim.Fault.reliable; crashes = [] };
    {
      label = "drop/dup 5%";
      plan = Sim.Fault.plan ~drop:0.05 ~duplicate:0.05 ();
      crashes = [];
    };
    {
      label = "10% faults, 1 crash";
      plan =
        Sim.Fault.plan ~drop:0.10 ~duplicate:0.10 ~delay_prob:0.10 ~delay_max:5.
          ~corrupt:0.05 ();
      crashes = [ (0, 1.2 *. day, 2. *. hour) ];
    };
    {
      label = "20% faults, 2 crashes, outage";
      plan =
        Sim.Fault.plan ~drop:0.20 ~duplicate:0.20 ~delay_prob:0.20 ~delay_max:10.
          ~corrupt:0.10
          ~outages:[ (2.55 *. day, (2.55 *. day) +. 1800.) ]
          ();
      crashes = [ (0, 1.2 *. day, 2. *. hour); (2, 2.1 *. day, 1. *. hour) ];
    };
  ]

let n_isps = 3
let users_per_isp = 25
let days = 3.
let fake_receives_per_day = 3
let sends_per_user = 30

let run_scenario ~tracer ~persist ~seed sc =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp) with
        Zmail.World.seed;
        audit_period = Some (6. *. hour);
        bank_fault = sc.plan;
        (* Crashes recover by WAL replay, so the world needs a disk; a
           reliable one draws nothing and changes no figure. *)
        disk = Some Sim.Disk.reliable;
        tracer = Some tracer;
        customize_isp =
          (fun i cfg ->
            (* Lean pools so the §4.3 buy/sell exchanges fire under the
               chaos: every ISP starts below minavail (first hourly pool
               check issues a Buy), and ISP 2's tight band makes the
               post-buy surplus trigger a Sell — live traffic for the
               exactly-once checker to watch across drops, duplicates
               and crash-recovery retransmits. *)
            let cfg =
              {
                cfg with
                Zmail.Isp.initial_avail = 150;
                minavail = 200;
                buy_amount = 300;
                maxavail = (if i = 2 then 400 else cfg.Zmail.Isp.maxavail);
              }
            in
            if i = 1 then
              { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives fake_receives_per_day }
            else cfg);
      }
  in
  (* The online checkers watch the whole run; the honest mask computed
     by the world already excludes the resident cheater (ISP 1). *)
  let checkers = Zmail.World.attach_invariants world in
  let engine = Zmail.World.engine world in
  let attempts = ref 0 in
  Cell.rotation world ~sends_per_user ~days ~offset:61. ~step:7 (fun _ ->
      incr attempts);
  List.iter
    (fun (isp, at, downtime) ->
      ignore
        (Sim.Engine.schedule_after engine ~delay:at (fun () ->
             Zmail.World.crash_isp world ~isp ~downtime)))
    sc.crashes;
  Cell.finish ~name:("E16 " ^ sc.label) ~persist ~label:sc.label
    ~days:(days +. 0.5) world checkers;
  let c = Zmail.World.counters world in
  let mesh = Zmail.World.mesh world in
  let link = Zmail.World.link_stats world in
  let v x = Sim.Stats.Counter.value x in
  let audits = Zmail.World.audit_results_timed world in
  (* Conviction is the sound §4.4 bar (bank.mli: suspects beyond the
     convicted list are investigation, never conviction).  Transient
     pair implications — an honest pair one-sided for a single round
     because a delayed audit request let mail straddle the snapshot —
     are reported in their own column: the bank looks at both ends of
     the inconsistent pair and the next round clears them. *)
  let first_flagged =
    List.find_map
      (fun (time, r) ->
        if List.mem 1 r.Zmail.Bank.convicted then Some time else None)
      audits
  in
  let false_convictions =
    List.fold_left
      (fun acc (_, r) ->
        acc + List.length (List.filter (fun s -> s <> 1) r.Zmail.Bank.convicted))
      0 audits
  in
  if false_convictions > 0 then
    failwith
      (Printf.sprintf "E16 %s: %d honest conviction(s)" sc.label false_convictions);
  let implicated =
    List.fold_left
      (fun acc (_, r) ->
        acc
        + List.length
            (List.filter
               (fun s -> not (List.mem s r.Zmail.Bank.convicted))
               r.Zmail.Bank.suspects))
      0 audits
  in
  let residue = Zmail.World.epenny_residue world in
  let minted = Zmail.World.cheat_minted world in
  let n = Sim.Table.cell_int in
  ( [
      sc.label;
      n !attempts;
      n c.Zmail.World.ham_delivered;
      Sim.Table.cell_pct
        (float_of_int c.Zmail.World.ham_delivered /. float_of_int !attempts);
      n (v link.Zmail.World.bounce_refunds);
      n (v link.Zmail.World.sends_failed_down);
      n (Sim.Fault.Mesh.link_dropped mesh);
      n (Sim.Fault.Mesh.duplicated mesh);
      n (Sim.Fault.Mesh.corrupted mesh);
      n (Sim.Fault.Mesh.outage_dropped mesh);
      n (v link.Zmail.World.retransmits);
      n (Zmail.Bank.stats (Zmail.World.bank world)).Zmail.Bank.replays_dropped;
      n (v link.Zmail.World.crashes);
    ],
    [
      sc.label;
      n (List.length audits);
      (match first_flagged with
      | Some time -> Printf.sprintf "day %.1f" (time /. day)
      | None -> "never");
      n false_convictions;
      n implicated;
      n minted;
      n residue;
    ],
    Obs.Metrics.to_table (Zmail.World.metrics world) )

let run ?obs ?persist ?(seed = 16) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  (* Chaos runs always trace: with no front-end tracer the events go
     into a small private ring whose tail is dumped on violation. *)
  let tracer = Obs.Run.tracer_or obs ~capacity:512 in
  let results =
    List.mapi (fun k sc -> run_scenario ~tracer ~persist ~seed:(seed + k) sc) scenarios
  in
  let faults =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E16 (robustness): goodput and fault counters under bank-link chaos \
            (%d ISPs x %d users, %.0f days, audits every 6 h)"
           n_isps users_per_isp days)
      ~columns:
        [
          "scenario";
          "send attempts";
          "delivered";
          "goodput";
          "bounce refunds";
          "refused (ISP down)";
          "link drops";
          "dups";
          "corrupt";
          "outage loss";
          "retransmits";
          "bank replays absorbed";
          "crashes";
        ]
  in
  let invariants =
    Sim.Table.create
      ~title:
        "E16: protocol invariants under the same chaos (cheater = ISP 1, \
         Fake_receives; residue = e-pennies unexplained by the bank, which \
         must equal exactly what the cheat minted)"
      ~columns:
        [
          "scenario";
          "audits completed";
          "cheater convicted";
          "false convictions";
          "implicated (transient)";
          "cheat minted";
          "residue";
        ]
  in
  List.iter
    (fun (f, i, _) ->
      Sim.Table.add_row faults f;
      Sim.Table.add_row invariants i)
    results;
  Cell.tables obs [ faults; invariants ] (List.map (fun (_, _, m) -> m) results)
