(* E19: Byzantine bank wire — adversaries on the accounting links.
   E18 put the liar inside the ISP (tampered audit reports); E19 puts
   it on the wire and inside the bank federation, and asks the same
   two questions — does anything break, and is anyone falsely blamed?

   Part 1 (grid): a [Zmail.Adversary.Bank_wire] tap owns one ISP's
   link to the bank and forges, replays, reorders or selectively drops
   its buy / sell / audit-reply envelopes, crossed with the E18 fault
   levels (calm / lossy / partitioned mesh).  Every ISP is honest, so
   the required outcome in every cell is: all forgeries and replays
   rejected (typed, counted), every exchange eventually converges
   through retransmission, zero convictions of anybody, zero e-penny
   residue at quiescence — watched online by the invariant checkers
   and checkpoint/resume-clean via [Checkpoint.drive].

   Part 2 (Byzantine-shard column): a World whose ISPs bank at member
   banks, with E15's traffic shape and daily audits, clears over a
   [Sim.Fault.Mesh] of the banks through [Zmail.Clearing] while one
   bank misbehaves — over-issues unbacked e-pennies, skims its
   declared clearing position, or lies in the audit on its members'
   behalf.  Statement verification or audit block-attribution must
   flag exactly the Byzantine bank in every round, wrongly implicated
   member ISPs must be cleared, settlement must route around the
   flagged bank and bring the rest to their mean, the clearing carry
   must drain to zero after heal, total federation money must stay
   exact, and the online checkers watch the world.  These cells are
   pure functions of their seed (no world snapshot), so resumed runs
   reproduce them byte-identically by re-execution. *)

let hour = Sim.Engine.hour
let day = Sim.Engine.day

(* ------------------------------------------------------------------ *)
(* Part 1: bank-wire adversary x fault-level grid                      *)
(* ------------------------------------------------------------------ *)

let tapped_isp = 2

module BW = Zmail.Adversary.Bank_wire

let wire_adversaries =
  [
    None;
    Some (BW.Forge_garbage 0.25);
    Some (BW.Replay_captured 0.25);
    Some (BW.Reorder (0.3, 30.));
    Some (BW.Drop_selective (BW.Buy_msg, 0.5));
    Some (BW.Drop_selective (BW.Audit_reply_msg, 0.5));
  ]

let reject_count stats reason =
  match List.assoc_opt reason stats.Zmail.Bank.rejects with
  | Some n -> n
  | None -> 0

(* A finite bulk blast from the tapped ISP, rotated over ten of its
   users: their auto-topups drain the ISP pool across [minavail], so
   the pool issues a steady stream of real buy_msgs for the tap to
   forge, replay or drop — without it the tapped link carries almost
   nothing but audit replies.  Finite budget, so the run still
   quiesces. *)
let blast world =
  let cfg = Zmail.World.config world in
  let users_per_isp = cfg.Zmail.World.users_per_isp in
  let universe = cfg.Zmail.World.n_isps * users_per_isp in
  let engine = Zmail.World.engine world in
  let rng = Sim.Engine.rng engine in
  let budget = 20 * users_per_isp in
  let users = Stdlib.min 10 users_per_isp in
  let rate = float_of_int budget /. (0.8 *. Cell.days *. day) in
  let rec go remaining () =
    if remaining > 0 then begin
      let u = remaining mod users in
      let self = (tapped_isp * users_per_isp) + u in
      let tgt = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
      let tgt = if tgt >= self then tgt + 1 else tgt in
      ignore
        (Zmail.World.send_email world ~from:(tapped_isp, u)
           ~to_:(tgt / users_per_isp, tgt mod users_per_isp)
           ~spam:true ());
      ignore
        (Sim.Engine.schedule_after engine
           ~delay:(Sim.Dist.exponential rng ~rate)
           (go (remaining - 1)))
    end
  in
  ignore (Sim.Engine.schedule_after engine ~delay:7. (go budget))

(* One cell: its traffic row, its detection row and its metrics.  No
   [register_adversary]: the tap owns the wire, not the books, so every
   ISP stays in the honest mask, the antisymmetry checker covers all of
   them, and any conviction at all fails the cell. *)
let run_cell grid ~seed (fault : Cell.fault_level) behavior =
  let name = match behavior with Some b -> BW.name b | None -> "none" in
  let users_per_isp = grid.Cell.users_per_isp in
  let cell =
    Cell.run grid ~seed fault ~label:(name ^ "/" ^ fault.flabel)
      ~configure:(fun cfg ->
        {
          cfg with
          Zmail.World.bank_wire =
            (match behavior with Some b -> [ (tapped_isp, b) ] | None -> []);
          (* The tapped ISP refills in small slices so the blast drives
             a steady stream of buy_msgs through the tap instead of one
             big one. *)
          customize_isp =
            (fun i isp ->
              let isp = cfg.Zmail.World.customize_isp i isp in
              if i = tapped_isp then { isp with Zmail.Isp.buy_amount = users_per_isp }
              else isp);
        })
      ~traffic:blast ()
  in
  let world = cell.world in
  let delivered = (Zmail.World.counters world).Zmail.World.ham_delivered in
  let link = Zmail.World.link_stats world in
  let bstats = Zmail.Bank.stats (Zmail.World.bank world) in
  let tap f =
    match Zmail.World.bank_wire_taps world with
    | (_, t) :: _ -> Sim.Table.cell_int (f t)
    | [] -> "0"
  in
  let implicated =
    List.fold_left
      (fun acc (_, r) ->
        acc + List.length (Zmail.Credit.Audit.implicated r.Zmail.Bank.violations))
      0 cell.audits
  in
  ( [
      name;
      fault.flabel;
      Sim.Table.cell_int cell.attempts;
      Sim.Table.cell_int cell.paid;
      Sim.Table.cell_int delivered;
      Sim.Table.cell_pct (float_of_int delivered /. float_of_int cell.attempts);
      Sim.Table.cell_int bstats.Zmail.Bank.buys;
      Sim.Table.cell_int bstats.Zmail.Bank.sells;
      Sim.Table.cell_int (Sim.Stats.Counter.value link.Zmail.World.retransmits);
      Sim.Table.cell_int (Sim.Stats.Counter.value link.Zmail.World.bank_rejects);
      Sim.Table.cell_int (List.length cell.audits);
      Sim.Table.cell_int (Sim.Stats.Counter.value link.Zmail.World.audits_deferred);
    ],
    [
      name;
      fault.flabel;
      tap BW.forged;
      tap BW.replayed;
      tap BW.delayed;
      tap BW.dropped;
      Sim.Table.cell_int (reject_count bstats Zmail.Bank.Unreadable);
      Sim.Table.cell_int (reject_count bstats Zmail.Bank.Wrong_state);
      Sim.Table.cell_int implicated;
    ],
    Obs.Metrics.to_table (Zmail.World.metrics world) )

(* ------------------------------------------------------------------ *)
(* Part 2: Byzantine member banks clearing over a chaotic mesh         *)
(* ------------------------------------------------------------------ *)

let fed_days = 14
let settle_every = 3
let byz_bank = 1

type chaos = { clabel : string; plan : Sim.Fault.plan; partitioned : bool }

let chaos_levels =
  [
    { clabel = "calm"; plan = Sim.Fault.reliable; partitioned = false };
    {
      clabel = "lossy";
      plan = Sim.Fault.plan ~drop:0.10 ~delay_prob:0.20 ~delay_max:600. ();
      partitioned = false;
    };
    {
      clabel = "partitioned";
      plan = Sim.Fault.plan ~drop:0.02 ~delay_prob:0.05 ~delay_max:600. ();
      partitioned = true;
    };
  ]

let bank_behaviors =
  [
    ("honest", Zmail.Federation.Honest_bank);
    ("over-issue", Zmail.Federation.Over_issue 5);
    ("skim", Zmail.Federation.Skim_position 400);
    ("lie-audit", Zmail.Federation.Lie_in_audit 7);
  ]

let ints l = if l = [] then "-" else String.concat "," (List.map string_of_int l)

(* The clearing mesh severs the last bank from everyone else across
   settlement days 4..8: transfers planned toward it become carry and
   must drain after heal. *)
let fed_partition ~n_banks =
  let groups = Array.make n_banks 0 in
  groups.(n_banks - 1) <- 1;
  [ Sim.Fault.Mesh.partition ~start:(4. *. day) ~stop:(8. *. day) ~groups ]

(* One cell: a World whose ISPs bank at [n_banks] members, bank
   [byz_bank] misbehaving, with E15's traffic shape (members of the
   lower half of the banks send far more to the upper half than they
   get back) and daily audits.  Settlement runs every [settle_every]
   days over a separate bank mesh on the world's engine. *)
let run_fed_cell ~seed ~n_banks ~(chaos : chaos) ~behavior_name ~behavior =
  let label = Printf.sprintf "%s/%s" behavior_name chaos.clabel in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("E19 federation cell " ^ label ^ ": " ^ m)) fmt in
  let n_isps = 2 * n_banks in
  let behaviors = Array.make n_banks Zmail.Federation.Honest_bank in
  behaviors.(byz_bank) <- behavior;
  let world =
    Zmail.World.create
      (E15_federation.config ~seed
         { (Zmail.Federation.default_config ~n_banks ~n_isps) with behaviors })
  in
  let checkers = Zmail.World.attach_invariants world in
  let fed = Zmail.World.federation world in
  let engine = Zmail.World.engine world in
  let mesh =
    Sim.Fault.Mesh.create ~default:chaos.plan
      ~partitions:(if chaos.partitioned then fed_partition ~n_banks else [])
      ~n_nodes:n_banks engine
      (Sim.Rng.stream ~seed ~tag:0xc1ea7)
  in
  let clr = Zmail.Clearing.create ~engine ~mesh fed in
  let expected_money = Zmail.Federation.total_money fed in
  let homed p = List.filter (fun i -> p (Zmail.Federation.home_of fed ~isp:i)) (List.init n_isps Fun.id) in
  let senders = homed (fun b -> b < n_banks / 2) in
  E15_federation.attach_flow world
    ~rng:(Sim.Rng.stream ~seed ~tag:0xfed19)
    ~days:fed_days ~senders ~receivers:(homed (fun b -> b >= n_banks / 2))
    ~forward:(60 * List.length senders) ~reverse:15;
  let max_carry = ref 0 in
  let flagged = ref [] in
  let check_money () =
    let money = Zmail.Federation.total_money fed in
    if money <> expected_money then
      fail "total money %d <> %d — conservation broken" money expected_money
  in
  let settle () =
    flagged := Zmail.Federation.verify_statements fed (Zmail.Federation.statements fed);
    ignore (Zmail.Clearing.settle_round ~exclude:(List.map fst !flagged) clr);
    max_carry := Stdlib.max !max_carry (Zmail.Clearing.pending_amount clr)
  in
  for d = 1 to fed_days do
    ignore
      (Sim.Engine.schedule_after engine ~delay:((float_of_int d -. 0.02) *. day) (fun () ->
           if d mod settle_every = 0 then settle ();
           max_carry := Stdlib.max !max_carry (Zmail.Clearing.pending_amount clr);
           check_money ()))
  done;
  (* Heal and drain: every partition window is over, so retries must
     deliver the carry; a final round converges the included banks. *)
  Zmail.World.run_until_quiet world;
  settle ();
  Cell.drain ~name:("E19 federation cell " ^ label) world checkers;
  check_money ();
  let end_carry = Zmail.Clearing.pending_amount clr in
  if end_carry <> 0 then fail "%d pennies of carry never drained" end_carry;
  let excluded = List.map fst !flagged in
  let included =
    List.filter_map
      (fun b ->
        if List.mem b excluded then None else Some (Zmail.Federation.position fed ~bank:b))
      (List.init n_banks Fun.id)
  in
  if List.fold_left Stdlib.max min_int included - List.fold_left Stdlib.min max_int included > 1
  then fail "positions [%s] did not return to their mean" (ints included);
  (* Every daily round checked pairs across bank lines: a lying home
     bank's rewrite must attribute to the bank and clear its
     members, round after round. *)
  let results = Zmail.World.audit_results world in
  let attributed =
    List.map
      (fun r ->
        let bank_sus = Zmail.Federation.bank_suspects fed r in
        (r, bank_sus, Zmail.Federation.suspects_excluding_banks fed r ~banks:bank_sus))
      results
  in
  let last, bank_sus, suspects_cleared =
    match List.rev attributed with
    | last :: _ -> last
    | [] -> fail "no audit round completed"
  in
  List.iter
    (fun (r, banks, cleared) ->
      if cleared <> [] then
        fail "honest member ISPs [%s] still suspect after bank attribution (round %d)"
          (ints cleared) r.Zmail.Bank.seq;
      match behavior with
      | Zmail.Federation.Lie_in_audit _ ->
          if banks <> [ byz_bank ] then
            fail "audit lie attributed to banks [%s] in round %d, expected [%d]"
              (ints banks) r.Zmail.Bank.seq byz_bank
      | Zmail.Federation.Honest_bank | Zmail.Federation.Over_issue _
      | Zmail.Federation.Skim_position _ ->
          if banks <> [] then fail "bank flagged by the audit — false positive")
    attributed;
  (match behavior with
  | Zmail.Federation.Honest_bank ->
      if !flagged <> [] then fail "honest bank flagged — false positive"
  | Zmail.Federation.Over_issue _ | Zmail.Federation.Skim_position _ ->
      if List.map fst !flagged <> [ byz_bank ] then
        fail "statement checks flagged [%s], expected [%d]" (ints excluded) byz_bank
  | Zmail.Federation.Lie_in_audit _ -> ());
  (* The table row; a cell whose money moved has failed above. *)
  let s = Zmail.Federation.stats fed in
  List.map Sim.Table.cell_int
    [ Zmail.Clearing.rounds clr; Zmail.Clearing.messages clr;
      s.Zmail.Federation.transfers_applied; s.Zmail.Federation.transfers_duplicate;
      !max_carry; end_carry; Zmail.Federation.unbacked fed ~bank:byz_bank ]
  @ [ (if excluded = [] then "-"
       else String.concat ";" (List.map (Printf.sprintf "bank %d") excluded));
      Sim.Table.cell_int (List.length last.Zmail.Bank.violations);
      ints last.Zmail.Bank.suspects; ints bank_sus; ints suspects_cleared; "exact" ]

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let run ?obs ?persist ?(seed = 19) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let n_isps, users_per_isp = if full then (100, 1000) else (10, 100) in
  let grid =
    {
      Cell.name = "E19";
      tracer = Obs.Run.tracer_or obs ~capacity:512;
      persist = Option.value persist ~default:Checkpoint.none;
      n_isps;
      users_per_isp;
      sends_per_user = 3;
      (* The tapped ISP's side of the split, with one honest companion. *)
      severed = [ tapped_isp; 3 ];
    }
  in
  let cells =
    List.concat_map
      (fun behavior ->
        List.map (fun fault -> (behavior, fault))
          [ Cell.calm; Cell.lossy; Cell.partitioned ])
      wire_adversaries
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
           "E19 (Byzantine bank wire): goodput under a tapped ISP%d-bank \
            link (%d ISPs x %d users, %.0f days, audits every %g h; every \
            ISP honest)"
           tapped_isp n_isps users_per_isp Cell.days
           (Cell.audit_period /. hour))
      ~columns:
        [
          "adversary";
          "faults";
          "sends";
          "paid";
          "delivered";
          "goodput";
          "buys";
          "sells";
          "retransmits";
          "bank rejects";
          "audits";
          "deferred";
        ]
  in
  let detection =
    Sim.Table.create
      ~title:
        "E19: what the tap did vs what the bank rejected (typed reasons), \
         and the non-negotiables — zero convictions (everyone is honest; \
         implicated = §4.4 investigation leads) and zero residue in every \
         cell"
      ~columns:
        [
          "adversary";
          "faults";
          "forged";
          "replayed";
          "delayed";
          "dropped";
          "rej unreadable";
          "rej wrong-state";
          "implicated";
        ]
  in
  List.iter
    (fun (t, d, _) ->
      Sim.Table.add_row traffic t;
      Sim.Table.add_row detection d)
    results;
  let n_banks = if full then 16 else 4 in
  let fed_cells =
    List.concat_map
      (fun (name, b) -> List.map (fun c -> (name, b, c)) chaos_levels)
      bank_behaviors
  in
  let federation =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E19: Byzantine-shard column — %d member banks clearing over a \
            chaotic mesh (bank %d misbehaves; flagged = statement checks, \
            bank suspects = audit block attribution; carry must drain, \
            money is exact in every cell)"
           n_banks byz_bank)
      ~columns:
        [
          "bank behavior";
          "chaos";
          "rounds";
          "messages";
          "applied";
          "dup";
          "max carry";
          "end carry";
          "unbacked";
          "flagged";
          "audit pairs";
          "suspects raw";
          "bank suspects";
          "cleared";
          "money";
        ]
  in
  List.iteri
    (fun k (name, behavior, chaos) ->
      Sim.Table.add_row federation
        (name :: chaos.clabel
        :: run_fed_cell ~seed:(seed + 1000 + k) ~n_banks ~chaos ~behavior_name:name
             ~behavior))
    fed_cells;
  Cell.tables obs [ traffic; detection; federation ]
    (List.map (fun (_, _, m) -> m) results)
