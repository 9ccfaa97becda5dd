(* E18: Byzantine ISPs under mesh chaos — the §4.4 robustness argument
   measured.  A grid of adversary behaviors (report tampering at thaw:
   understating owed credit, replaying a stale row, dropping one
   peer's cross-check entry) against fault levels (calm mesh, lossy
   links, scheduled partitions that sever the adversary's group from
   the bank).  The questions each cell answers:

   - detection: when is the adversary first implicated (appears in a
     violating pair) and first *convicted* (violates with a strict
     majority of present peers)?  The partition cells additionally
     show that detection survives quorum rounds and reconciled
     late reports — the adversary cannot hide behind a partition.
   - false accusations: no honest ISP may ever be convicted, under any
     cell of the grid.  Honest ISPs implicated for investigation
     (every violating pair names two parties) are reported separately
     — that is §4.4's stated ambiguity, not a false conviction.
   - conservation: every adversary here is balance-neutral by
     construction (the tamper rewrites reports, never money), so the
     residue must be zero in every cell, including the ones where
     partitioned mail bounces and is refunded.

   Unlike E16/E17 there is no Fake_receives cheater: money is honest
   everywhere and only the *reports* lie. *)

let adversary_isp = 2
let crosscheck_victim = 5

let adversaries =
  [
    None;
    Some (Zmail.Adversary.Understate_owed 3);
    Some Zmail.Adversary.Replay_stale;
    Some (Zmail.Adversary.Drop_crosscheck crosscheck_victim);
  ]

(* Convictions are the strict majority of present peers, without the
   bank's ring members: [Bank.audit_result.suspects] falls back to
   "everyone implicated" when nobody crosses the threshold (§4.4
   investigation leads), and measuring false accusations must not
   conflate the two. *)
let offenders world (r : Zmail.Bank.audit_result) =
  let present =
    Array.mapi
      (fun i c -> c && not (List.mem i r.Zmail.Bank.absent))
      (Zmail.World.config world).Zmail.World.compliant
  in
  Audit.Verify.offenders ~present r.Zmail.Bank.violations

(* One cell: its row of the traffic table, its row of the detection
   table and its metrics. *)
let run_cell grid ~seed (fault : Cell.fault_level) behavior =
  let adv = Option.map Zmail.Adversary.create behavior in
  let name =
    match behavior with Some b -> Zmail.Adversary.name b | None -> "none"
  in
  let adversaries = if Option.is_none adv then [] else [ adversary_isp ] in
  (* The tamperer registers before the checkers attach, so the honest
     mask already excludes it when the antisymmetry checker subscribes. *)
  let cell =
    Cell.run grid ~seed fault ~label:(name ^ "/" ^ fault.flabel)
      ?arm:
        (Option.map
           (fun adv world ->
             Zmail.World.register_adversary world ~isp:adversary_isp adv)
           adv)
      ~convicted:offenders ~adversaries ()
  in
  let world = cell.world in
  let first p =
    if Option.is_none adv then None
    else
      List.find_map
        (fun (time, r) -> if p r then Some time else None)
        cell.audits
  in
  let honest_implicated =
    List.fold_left
      (fun acc (_, r) ->
        acc
        + List.length
            (List.filter
               (fun i -> not (List.mem i adversaries))
               (Zmail.Credit.Audit.implicated r.Zmail.Bank.violations)))
      0 cell.audits
  in
  let delivered = (Zmail.World.counters world).Zmail.World.ham_delivered in
  let link = Zmail.World.link_stats world in
  let mesh = Zmail.World.mesh world in
  let bounced =
    List.init grid.Cell.n_isps (fun i ->
        (Smtp.Mta.stats (Zmail.World.mta world i)).Smtp.Mta.bounced)
    |> List.fold_left ( + ) 0
  in
  ( [
      name;
      fault.flabel;
      Sim.Table.cell_int cell.attempts;
      Sim.Table.cell_int cell.paid;
      Sim.Table.cell_int delivered;
      Sim.Table.cell_pct (float_of_int delivered /. float_of_int cell.attempts);
      Sim.Table.cell_int bounced;
      Sim.Table.cell_int (Sim.Stats.Counter.value link.Zmail.World.bounce_refunds);
      Sim.Table.cell_int (Sim.Fault.Mesh.link_dropped mesh);
      Sim.Table.cell_int (Sim.Fault.Mesh.partition_dropped mesh);
    ],
    [
      name;
      fault.flabel;
      Sim.Table.cell_int (List.length cell.audits);
      Sim.Table.cell_int
        (Sim.Stats.Counter.value link.Zmail.World.audits_deferred);
      Sim.Table.cell_int
        (List.fold_left
           (fun acc (_, r) -> acc + List.length r.Zmail.Bank.absent)
           0 cell.audits);
      Sim.Table.cell_int
        (match adv with Some a -> Zmail.Adversary.tampered a | None -> 0);
      Cell.day_of
        (first (fun r ->
             List.mem adversary_isp
               (Zmail.Credit.Audit.implicated r.Zmail.Bank.violations)));
      Cell.day_of (first (fun r -> List.mem adversary_isp (offenders world r)));
      Sim.Table.cell_int honest_implicated;
      Sim.Table.cell_int cell.honest_convicted;
      Sim.Table.cell_int cell.residue;
    ],
    Obs.Metrics.to_table (Zmail.World.metrics world) )

let run ?obs ?persist ?(seed = 18) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let n_isps, users_per_isp = if full then (100, 1000) else (10, 100) in
  let grid =
    {
      Cell.name = "E18";
      tracer = Obs.Run.tracer_or obs ~capacity:512;
      persist = Option.value persist ~default:Checkpoint.none;
      n_isps;
      users_per_isp;
      sends_per_user = 3;
      (* The adversary's side of the split, with one honest companion. *)
      severed = [ adversary_isp; 3 ];
    }
  in
  let cells =
    List.concat_map
      (fun behavior ->
        List.map (fun fault -> (behavior, fault))
          [ Cell.calm; Cell.lossy; Cell.partitioned ])
      adversaries
  in
  let results =
    List.mapi
      (fun k (behavior, fault) -> run_cell grid ~seed:(seed + k) fault behavior)
      cells
  in
  let traffic =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E18 (adversarial robustness): goodput and refunds under mesh \
            chaos (%d ISPs x %d users, %.0f days, audits every %g h, \
            adversary = ISP %d tampering its audit reports)"
           n_isps users_per_isp Cell.days
           (Cell.audit_period /. Sim.Engine.hour)
           adversary_isp)
      ~columns:
        [
          "adversary";
          "faults";
          "sends";
          "paid";
          "delivered";
          "goodput";
          "bounced";
          "refunds";
          "mesh drops";
          "partition drops";
        ]
  in
  let detection =
    Sim.Table.create
      ~title:
        "E18: detection across the same grid (convicted = strict majority \
         of present peers; implicated honest ISPs are §4.4 investigation \
         leads, never convictions; residue must be 0 — every tamper is \
         balance-neutral)"
      ~columns:
        [
          "adversary";
          "faults";
          "audits";
          "deferred";
          "absences";
          "tampered reports";
          "adv implicated";
          "adv convicted";
          "honest implicated";
          "honest convicted";
          "residue";
        ]
  in
  List.iter
    (fun (t, d, _) ->
      Sim.Table.add_row traffic t;
      Sim.Table.add_row detection d)
    results;
  Cell.tables obs [ traffic; detection ] (List.map (fun (_, _, m) -> m) results)
