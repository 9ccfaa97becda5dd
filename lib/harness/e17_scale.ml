(* E17: the scale pass — the zero-sum and detection claims regenerated
   at 10^4 and 10^5 users (10^6 behind [~million]) across 100+ ISPs,
   with Zipf-distributed sender activity instead of the uniform
   round-robins of the small experiments.

   The table reports only deterministic quantities (counts, audit
   outcomes, residue), so the experiment output stays byte-stable
   across machines. *)

let hour = Sim.Engine.hour
let day = Sim.Engine.day

let days = 2.0
let cheater = 1
let fake_receives_per_day = 3
let generators = 64

type outcome = {
  isps : int;
  users : int;
  attempts : int;
  paid : int;
  free : int;
  deferred : int;
  blocked : int;
  failed : int;
  delivered : int;
  audits : int;
  first_flagged : float option;
  false_accusations : int;
  minted : int;
  residue : int;
  events : int;
  metrics : Sim.Table.t;
}

let run_scale ?tracer ?(persist = Checkpoint.none) ~seed ~n_isps ~users_per_isp
    ?(sends_per_user = 3) () =
  let base =
    {
      (Zmail.World.default_config ~n_isps ~users_per_isp) with
      Zmail.World.seed;
      audit_period = Some (12. *. hour);
      (* Mailboxes are the one structure that grows linearly with
         delivered mail; at 10^5+ users retaining every message is the
         difference between a flat and an unbounded heap. *)
      retain_mail = false;
      tracer;
    }
  in
  let world =
    Zmail.World.create
      {
        base with
        customize_isp =
          (fun i cfg ->
            (* The default pool bounds are sized for 25-user toy
               worlds; at 1000 users/ISP the hourly §4.3 check cannot
               refill fast enough and auto-topups starve mid-hour. *)
            let cfg = Cell.pool base cfg in
            if i = cheater then
              { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives fake_receives_per_day }
            else cfg);
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  let attempts = ref 0 in
  let paid = ref 0 in
  let free = ref 0 in
  let deferred = ref 0 in
  let blocked = ref 0 in
  let failed = ref 0 in
  (* A fixed budget of sends from a small generator fleet: the
     pending-event heap stays O(generators + mail in flight) instead
     of O(budget), which is what lets the million-user row fit in
     memory. *)
  Cell.zipf_fleet world ~generators ~stride_from:7919 ~sends_per_user ~days
    (fun r ->
      incr attempts;
      match r with
      | Zmail.World.Submitted `Paid -> incr paid
      | Zmail.World.Submitted `Free -> incr free
      | Zmail.World.Deferred_snapshot -> incr deferred
      | Zmail.World.Failed_down -> incr failed
      | Zmail.World.Backpressured -> incr failed
      | Zmail.World.Rejected _ -> incr blocked);
  let universe = n_isps * users_per_isp in
  Cell.finish ~name:(Printf.sprintf "E17 %d users" universe) ~persist
    ~label:(string_of_int universe) ~days:(days +. 0.5) world checkers;
  let c = Zmail.World.counters world in
  let audits = Zmail.World.audit_results_timed world in
  let first_flagged =
    List.find_map
      (fun (time, r) -> if r.Zmail.Bank.suspects <> [] then Some time else None)
      audits
  in
  let false_accusations =
    List.fold_left
      (fun acc (_, r) ->
        acc + List.length (List.filter (fun s -> s <> cheater) r.Zmail.Bank.suspects))
      0 audits
  in
  {
    isps = n_isps;
    users = universe;
    attempts = !attempts;
    paid = !paid;
    free = !free;
    deferred = !deferred;
    blocked = !blocked;
    failed = !failed;
    delivered = c.Zmail.World.ham_delivered;
    audits = List.length audits;
    first_flagged;
    false_accusations;
    minted = Zmail.World.cheat_minted world;
    residue = Zmail.World.epenny_residue world;
    events = Sim.Engine.events_fired (Zmail.World.engine world);
    metrics = Obs.Metrics.to_table (Zmail.World.metrics world);
  }

let rows ~million =
  [ ("10k", 10, 1000); ("100k", 100, 1000) ]
  @ if million then [ ("1M", 1000, 1000) ] else []

(* The --domains variant: the same scale story on the sharded world
   (Zmail.Parworld), stepped on [domains] domains.  The table reports
   only deterministic quantities and is byte-identical for any domain
   count — that equality across [--domains 1] and [--domains 2] runs
   is enforced by the CI multi-domain lane; the domain count itself
   goes to stderr so stdout stays comparable. *)
let run_sharded ~seed ~domains ~million =
  Printf.eprintf "e17: sharded variant stepping on %d domain(s)\n%!" domains;
  let scales =
    [ ("4x5x200", 4, 5, 200) ]
    @ if million then [ ("4x25x10k", 4, 25, 10_000) ] else []
  in
  let table =
    Sim.Table.create
      ~title:
        "E17 (scale, sharded): disjoint ISP groups stepping in parallel \
         with barrier-merged cross-group mail (12 h windows, Zipf s=1.1, \
         10% cross traffic); counts are byte-identical for any --domains"
      ~columns:
        [
          "scale";
          "groups";
          "ISPs";
          "users";
          "cross sent";
          "cross injected";
          "barriers";
          "delivered";
          "events";
          "audits";
          "residue";
        ]
  in
  List.iter
    (fun (label, groups, isps_per_group, users_per_isp) ->
      let pw =
        Zmail.Parworld.create
          {
            (Zmail.Parworld.default_config ~groups ~isps_per_group
               ~users_per_isp)
            with
            Zmail.Parworld.seed;
            days;
          }
      in
      Zmail.Parworld.run pw ~domains;
      let residue = Zmail.Parworld.residue pw in
      if residue <> 0 then
        failwith (Printf.sprintf "E17 sharded %s: e-penny residue %d" label residue);
      Sim.Table.add_row table
        [
          label;
          Sim.Table.cell_int groups;
          Sim.Table.cell_int (groups * isps_per_group);
          Sim.Table.cell_int (groups * isps_per_group * users_per_isp);
          Sim.Table.cell_int (Zmail.Parworld.cross_sent pw);
          Sim.Table.cell_int (Zmail.Parworld.cross_injected pw);
          Sim.Table.cell_int (Zmail.Parworld.barriers pw);
          Sim.Table.cell_int (Zmail.Parworld.ham_delivered pw);
          Sim.Table.cell_int (Zmail.Parworld.events_fired pw);
          Sim.Table.cell_int (Zmail.Parworld.audits pw);
          Sim.Table.cell_int residue;
        ])
    scales;
  [ table ]

let run ?obs ?persist ?(seed = 17) ?(million = false) ?domains () =
  match domains with
  | Some d -> run_sharded ~seed ~domains:d ~million
  | None ->
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let tracer = Obs.Run.tracer_or obs ~capacity:512 in
  let outcomes =
    List.mapi
      (fun k (label, n_isps, users_per_isp) ->
        ( label,
          run_scale ~tracer ~persist ~seed:(seed + k) ~n_isps ~users_per_isp () ))
      (rows ~million)
  in
  let table =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E17 (scale): zero-sum and detection at 10^4-10^6 users (Zipf s=1.1 \
            senders, %.0f days, audits every 12 h, cheater = ISP %d, \
            retain_mail=false)"
           days cheater)
      ~columns:
        [
          "scale";
          "ISPs";
          "users";
          "sends";
          "paid";
          "deferred";
          "blocked";
          "delivered";
          "events";
          "audits";
          "cheater flagged";
          "false accusations";
          "minted";
          "residue";
        ]
  in
  List.iter
    (fun (label, o) ->
      Sim.Table.add_row table
        [
          label;
          Sim.Table.cell_int o.isps;
          Sim.Table.cell_int o.users;
          Sim.Table.cell_int o.attempts;
          Sim.Table.cell_int o.paid;
          Sim.Table.cell_int o.deferred;
          Sim.Table.cell_int o.blocked;
          Sim.Table.cell_int o.delivered;
          Sim.Table.cell_int o.events;
          Sim.Table.cell_int o.audits;
          (match o.first_flagged with
          | Some time -> Printf.sprintf "day %.1f" (time /. day)
          | None -> "never");
          Sim.Table.cell_int o.false_accusations;
          Sim.Table.cell_int o.minted;
          Sim.Table.cell_int o.residue;
        ])
    outcomes;
  (* Rows share nothing (each is its own world); under [--metrics]
     report the registry of the last — largest — row. *)
  Cell.tables obs [ table ] (List.map (fun (_, o) -> o.metrics) outcomes)
