(* E21: collusion rings vs the cycle-sum detector — §4.4's open flank
   measured.  Pairwise auditing catches a lone liar because its row
   disagrees with a majority of honest peers; a *coalition* can instead
   aim its lies at one honest victim and balance them (one member
   overstates what the victim owes, another understates by the same
   amount), so no member ever crosses the strict-majority threshold and
   the victim sits in the middle of every violating pair.  The sparse
   audit engine's cycle detector (lib/audit) walks the claim graph
   around each violation center, groups the accusers connected by
   consistent-nonzero fabricated edges, and convicts exactly the
   coalitions whose star sums to zero — clearing the center.

   The grid crosses collusion plans (none, an antisymmetric pair, a
   3-ring, plus a 5-ring under --full) with fault levels (calm mesh,
   scheduled partitions that sever one coalition member from the bank
   across audit rounds).  Each cell answers:

   - conviction: are *all* coalition members convicted — including the
     member whose report only arrives after a partition heals, via the
     carry matrix — and when?
   - framing: is the victim at the center of every fabricated star
     cleared, and is no honest ISP ever convicted, in any cell?
   - conservation: collusion tampers reports, never money, so the
     e-penny residue must be zero everywhere.

   Under --full the grid also rises to 10^4 ISPs — feasible only on the
   sparse representation; dense rows alone would need ~800 MB. *)

(* A collusion plan: which ISPs tamper, whom they frame, and the
   per-member behaviors from the {!Zmail.Adversary} plan builders. *)
type plan = {
  plabel : string;
  colluders : int list;
  victims : int list;
  assignments : (int * Zmail.Adversary.behavior) list;
}

let no_collusion =
  { plabel = "none"; colluders = []; victims = []; assignments = [] }

(* Members sit on even indices, victims on odd ones, so plans stay
   disjoint from the partition companion (ISP 3 is never a member). *)
let pair_plan =
  {
    plabel = "pair";
    colluders = [ 2; 4 ];
    victims = [ 5 ];
    assignments = Zmail.Adversary.collusion_pair ~a:2 ~b:4 ~victim:5 ~delta:3 ();
  }

let ring_plan k =
  let members = List.init k (fun i -> 2 * (i + 1)) in
  let victims = List.init k (fun i -> (2 * i) + 5) in
  {
    plabel = Printf.sprintf "ring%d" k;
    colluders = members;
    victims;
    assignments = Zmail.Adversary.collusion_ring ~members ~victims ~delta:2 ();
  }

(* One cell: its detection row (labelled [label]) and its metrics. *)
let run_cell grid ~seed (fault : Cell.fault_level) ~label (plan : plan) =
  let advs =
    List.map
      (fun (isp, behavior) -> (isp, Zmail.Adversary.create behavior))
      plan.assignments
  in
  (* The coalition registers before the checkers attach: the honest
     mask excludes every member before the antisymmetry and
     cycle-residue checkers subscribe, so a victim conviction trips
     cycle-residue instantly. *)
  let cell_label = plan.plabel ^ "/" ^ fault.flabel in
  let cell =
    Cell.run grid ~seed fault ~label:cell_label
      ~arm:(fun world ->
        List.iter
          (fun (isp, adv) -> Zmail.World.register_adversary world ~isp adv)
          advs)
      ~adversaries:plan.colluders ()
  in
  let fail fmt =
    Printf.ksprintf (fun m -> failwith ("E21 " ^ cell_label ^ ": " ^ m)) fmt
  in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 cell.audits in
  let first p =
    List.find_map (fun (time, r) -> if p time r then Some time else None) cell.audits
  in
  let first_ring = first (fun _ r -> r.Zmail.Bank.rings <> []) in
  let full_conviction (r : Zmail.Bank.audit_result) =
    List.for_all (fun m -> List.mem m r.Zmail.Bank.convicted) plan.colluders
  in
  let all_convicted, post_heal =
    match plan.colluders with
    | [] -> (None, None)
    | _ ->
        ( first (fun _ r -> full_conviction r),
          (* The round whose verification leans on the carry matrix for
             the severed member's late report. *)
          first (fun time r -> time > Cell.first_heal && full_conviction r) )
  in
  if plan.colluders <> [] && all_convicted = None then
    fail "coalition never fully convicted (first ring %s)"
      (match first_ring with
      | Some t -> Printf.sprintf "at day %.2f" (t /. Sim.Engine.day)
      | None -> "never");
  (* Partition cells must re-convict after the heal: a missing post-heal
     conviction means the carry path lost the coalition's trail. *)
  if plan.colluders <> [] && fault.partitioned && post_heal = None then
    fail "no full-coalition conviction after the partition healed";
  let world = cell.world in
  let link = Zmail.World.link_stats world in
  ( [
      label;
      fault.flabel;
      Sim.Table.cell_int cell.attempts;
      Sim.Table.cell_int (Zmail.World.counters world).Zmail.World.ham_delivered;
      Sim.Table.cell_int (List.length cell.audits);
      Sim.Table.cell_int (Sim.Stats.Counter.value link.Zmail.World.audits_deferred);
      Sim.Table.cell_int (sum (fun r -> List.length r.Zmail.Bank.absent));
      Sim.Table.cell_int
        (List.fold_left (fun acc (_, a) -> acc + Zmail.Adversary.tampered a) 0 advs);
      Sim.Table.cell_int (sum (fun r -> List.length r.Zmail.Bank.rings));
      Sim.Table.cell_int
        (sum (fun r ->
             List.fold_left
               (fun a (ring : Audit.Cycle.ring) -> a + ring.Audit.Cycle.residue)
               0 r.Zmail.Bank.rings));
      Cell.day_of first_ring;
      Cell.day_of all_convicted;
      Cell.day_of post_heal;
      Sim.Table.cell_int
        (sum (fun r ->
             List.length
               (List.filter (fun i -> List.mem i plan.victims) r.Zmail.Bank.cleared)));
      Sim.Table.cell_int cell.honest_convicted;
      Sim.Table.cell_int cell.residue;
    ],
    Obs.Metrics.to_table (Zmail.World.metrics world) )

let run ?obs ?persist ?(seed = 21) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let n_isps, users_per_isp = if full then (40, 200) else (16, 60) in
  let grid =
    {
      Cell.name = "E21";
      tracer = Obs.Run.tracer_or obs ~capacity:512;
      persist = Option.value persist ~default:Checkpoint.none;
      n_isps;
      users_per_isp;
      sends_per_user = 3;
      (* Coalition member 2 (every plan includes it) and an honest
         companion: the member's tampered row only reaches the bank
         after the heal, so ring conviction must ride the carry-matrix
         reconciliation. *)
      severed = [ 2; 3 ];
    }
  in
  let plans =
    [ no_collusion; pair_plan; ring_plan 3 ]
    @ if full then [ ring_plan 5 ] else []
  in
  let cells =
    List.concat_map
      (fun plan -> List.map (fun fault -> (plan, fault)) [ Cell.calm; Cell.partitioned ])
      plans
  in
  let results =
    List.mapi
      (fun k (plan, fault) ->
        run_cell grid ~seed:(seed + k) fault ~label:plan.plabel plan)
      cells
  in
  (* The 10^4-ISP row (--full): the scale §4.4 names, representable
     only sparsely.  One calm 3-ring cell — the conviction property at
     four orders of magnitude, not a fault sweep.  25 users per ISP:
     the population-sized pool (2 x users) must cover one 50-penny
     auto-topup, or every heavy sender is blocked before its pool drops
     below minavail and no buy or sell ever reaches the exactly-once
     checker. *)
  let results =
    if full then
      results
      @ [
          run_cell
            { grid with n_isps = 10_000; users_per_isp = 25; sends_per_user = 1 }
            ~seed:(seed + 97) Cell.calm ~label:"ring3@10^4 isps" (ring_plan 3);
        ]
    else results
  in
  let detection =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E21 (collusion rings): cycle-sum detection across collusion x \
            fault cells (%d ISPs x %d users, %.0f days, audits every %g h; \
            convicted = strict majority OR cycle-ring membership; the framed \
            victim must be cleared, honest convictions must be 0, residue \
            must be 0)"
           n_isps users_per_isp Cell.days (Cell.audit_period /. Sim.Engine.hour))
      ~columns:
        [
          "collusion";
          "faults";
          "sends";
          "delivered";
          "audits";
          "deferred";
          "absences";
          "tampered";
          "rings";
          "ring volume";
          "first ring";
          "all convicted";
          "post-heal";
          "victims cleared";
          "honest convicted";
          "residue";
        ]
  in
  List.iter (fun (row, _) -> Sim.Table.add_row detection row) results;
  Cell.tables obs [ detection ] (List.map snd results)
