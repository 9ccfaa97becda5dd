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

   Part 2 (Byzantine-shard column): a member-bank federation clears
   over a [Sim.Fault.Mesh] through [Zmail.Clearing] while one bank
   misbehaves — over-issues unbacked e-pennies, skims its declared
   clearing position, or lies in the global audit on its members'
   behalf.  Statement verification or audit block-attribution must
   flag exactly the Byzantine bank, wrongly implicated member ISPs
   must be cleared, settlement must route around the flagged bank, the
   partition carry must drain to zero after heal, and total federation
   money must stay exact in every cell.  These cells are pure
   functions of their seed (no world snapshot), so resumed runs
   reproduce them byte-identically by re-execution. *)

let hour = Sim.Engine.hour
let day = Sim.Engine.day

(* ------------------------------------------------------------------ *)
(* Part 1: bank-wire adversary x fault-level grid                      *)
(* ------------------------------------------------------------------ *)

let days = 2.0
let audit_period = 6. *. hour
let tapped_isp = 2
let generators = 16

module BW = Zmail.Adversary.Bank_wire

type fault_level = { flabel : string; mesh : Sim.Fault.plan; partitioned : bool }

let fault_levels =
  [
    { flabel = "calm"; mesh = Sim.Fault.reliable; partitioned = false };
    {
      flabel = "lossy";
      mesh = Sim.Fault.plan ~drop:0.05 ~delay_prob:0.10 ~delay_max:2.0 ();
      partitioned = false;
    };
    {
      flabel = "partitioned";
      mesh = Sim.Fault.plan ~drop:0.02 ~delay_prob:0.05 ~delay_max:2.0 ();
      partitioned = true;
    };
  ]

let wire_adversaries =
  [
    None;
    Some (BW.Forge_garbage 0.25);
    Some (BW.Replay_captured 0.25);
    Some (BW.Reorder (0.3, 30.));
    Some (BW.Drop_selective (BW.Buy_msg, 0.5));
    Some (BW.Drop_selective (BW.Audit_reply_msg, 0.5));
  ]

(* Same shape as E18's windows: the tapped ISP's side of the split
   (with one honest companion) is severed from the bank across audit
   rounds, once for a multi-round stretch and once briefly after a
   healed interval. *)
let partition_windows ~n_isps =
  let groups = Array.make (n_isps + 1) 0 in
  groups.(tapped_isp) <- 1;
  groups.(3) <- 1;
  [
    Sim.Fault.Mesh.partition ~start:(0.3 *. day) ~stop:(0.95 *. day) ~groups;
    Sim.Fault.Mesh.partition ~start:(1.45 *. day) ~stop:(1.55 *. day) ~groups;
  ]

type outcome = {
  attempts : int;
  paid : int;
  delivered : int;
  buys : int;
  sells : int;
  retransmits : int;
  bank_rejects : int;  (* total ISP-origin messages the bank refused *)
  rej_unreadable : int;
  rej_replayed : int;
  rej_wrong_state : int;
  tap_forged : int;
  tap_replayed : int;
  tap_delayed : int;
  tap_dropped : int;
  audits : int;
  deferred_rounds : int;
  convicted : int;  (* anyone, any round — everyone is honest, must be 0 *)
  implicated : int;  (* §4.4 investigation leads, reported not convicted *)
  residue : int;
  metrics : Sim.Table.t;
}

(* Strict-majority convictions recomputed from the raw violation list
   (same rule as E18): convicted = violates with strictly more than
   half of the round's present peers; the suspect-list fallback to
   "everyone implicated" is §4.4 investigation, not conviction. *)
let convictions ~compliant (r : Zmail.Bank.audit_result) =
  let n = Array.length compliant in
  let present i = compliant.(i) && not (List.mem i r.Zmail.Bank.absent) in
  let present_count = ref 0 in
  for i = 0 to n - 1 do
    if present i then incr present_count
  done;
  let counts = Array.make n 0 in
  List.iter
    (fun (v : Zmail.Credit.Audit.violation) ->
      counts.(v.Zmail.Credit.Audit.isp_a) <- counts.(v.Zmail.Credit.Audit.isp_a) + 1;
      counts.(v.Zmail.Credit.Audit.isp_b) <- counts.(v.Zmail.Credit.Audit.isp_b) + 1)
    r.Zmail.Bank.violations;
  let threshold = (!present_count - 1) / 2 in
  List.filter
    (fun i -> present i && counts.(i) > threshold)
    (List.init n (fun i -> i))

let implicated_of (r : Zmail.Bank.audit_result) =
  List.concat_map
    (fun (v : Zmail.Credit.Audit.violation) ->
      [ v.Zmail.Credit.Audit.isp_a; v.Zmail.Credit.Audit.isp_b ])
    r.Zmail.Bank.violations
  |> List.sort_uniq compare

let reject_count stats reason =
  match List.assoc_opt reason stats.Zmail.Bank.rejects with
  | Some n -> n
  | None -> 0

let run_cell ~tracer ~persist ~seed ~n_isps ~users_per_isp ~sends_per_user
    ~(fl : fault_level) ~behavior =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp) with
        Zmail.World.seed;
        audit_period = Some audit_period;
        retain_mail = false;
        tracer = Some tracer;
        mesh_default = fl.mesh;
        partitions = (if fl.partitioned then partition_windows ~n_isps else []);
        bank_wire =
          (match behavior with Some b -> [ (tapped_isp, b) ] | None -> []);
        customize_isp =
          (fun i cfg ->
            let cfg = { cfg with Zmail.Isp.daily_limit = 1_000_000 } in
            {
              cfg with
              Zmail.Isp.initial_avail = 2 * users_per_isp;
              minavail = users_per_isp;
              (* The tapped ISP refills in small slices so the bulk
                 blast below drives a steady stream of buy_msgs through
                 the tap instead of one big one. *)
              buy_amount =
                (if i = tapped_isp then users_per_isp else 5 * users_per_isp);
              maxavail = 20 * users_per_isp;
            });
      }
  in
  (* No [register_adversary]: the tap owns the wire, not the books, so
     every ISP stays in the honest mask and the antisymmetry checker
     covers all of them. *)
  let checkers = Zmail.World.attach_invariants world in
  let engine = Zmail.World.engine world in
  let rng = Sim.Engine.rng engine in
  let universe = n_isps * users_per_isp in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  let rank = Sim.Dist.zipf ~n:universe ~s:1.1 in
  let stride =
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let rec find c = if gcd c universe = 1 then c else find (c + 1) in
    find 97
  in
  let attempts = ref 0 in
  let paid = ref 0 in
  let send () =
    let g = (rank rng - 1) * stride mod universe in
    let t = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
    let t = if t >= g then t + 1 else t in
    incr attempts;
    match
      Zmail.World.send_email world ~from:(of_global g) ~to_:(of_global t) ()
    with
    | Zmail.World.Submitted `Paid -> incr paid
    | Zmail.World.Submitted `Free | Zmail.World.Deferred_snapshot
    | Zmail.World.Failed_down | Zmail.World.Backpressured
    | Zmail.World.Rejected _ ->
        ()
  in
  let total_sends = universe * sends_per_user in
  let n_gen = Stdlib.min generators total_sends in
  let per_gen = total_sends / n_gen in
  let rate = float_of_int per_gen /. (0.9 *. days *. day) in
  for i = 0 to n_gen - 1 do
    let budget = per_gen + if i < total_sends mod n_gen then 1 else 0 in
    let rec step remaining () =
      if remaining > 0 then begin
        send ();
        ignore
          (Sim.Engine.schedule_after engine
             ~delay:(Sim.Dist.exponential rng ~rate)
             (step (remaining - 1)))
      end
    in
    ignore
      (Sim.Engine.schedule_after engine ~delay:(float_of_int i *. 13.)
         (step budget))
  done;
  (* A finite bulk blast from the tapped ISP, rotated over ten of its
     users: their auto-topups drain the ISP pool across [minavail], so
     the pool issues a steady stream of real buy_msgs for the tap to
     forge, replay or drop — without it the tapped link carries almost
     nothing but audit replies.  Finite budget, so the run still
     quiesces. *)
  let blast_budget = 20 * users_per_isp in
  let blast_users = Stdlib.min 10 users_per_isp in
  let blast_rate = float_of_int blast_budget /. (0.8 *. days *. day) in
  let rec blast remaining () =
    if remaining > 0 then begin
      let u = remaining mod blast_users in
      let self = (tapped_isp * users_per_isp) + u in
      let tgt = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
      let tgt = if tgt >= self then tgt + 1 else tgt in
      ignore
        (Zmail.World.send_email world ~from:(tapped_isp, u)
           ~to_:(of_global tgt) ~spam:true ());
      ignore
        (Sim.Engine.schedule_after engine
           ~delay:(Sim.Dist.exponential rng ~rate:blast_rate)
           (blast (remaining - 1)))
    end
  in
  ignore (Sim.Engine.schedule_after engine ~delay:7. (blast blast_budget));
  let label =
    Printf.sprintf "%s/%s"
      (match behavior with Some b -> BW.name b | None -> "none")
      fl.flabel
  in
  (try
     Checkpoint.drive persist ~label ~world ~days:(days +. 0.5) ();
     Zmail.World.run_until_quiet world;
     Zmail.World.check_invariants ~quiescent:true world
   with Obs.Invariant.Violation v ->
     Format.eprintf "%a@." Obs.Invariant.pp_violation v;
     raise (Obs.Invariant.Violation v));
  List.iter
    (fun c ->
      if Obs.Invariant.checks c = 0 then
        failwith ("E19: checker " ^ Obs.Invariant.name c ^ " never ran");
      Obs.Invariant.detach c)
    checkers;
  let compliant = (Zmail.World.config world).Zmail.World.compliant in
  let audits = Zmail.World.audit_results_timed world in
  let convicted =
    List.fold_left
      (fun acc (_, r) -> acc + List.length (convictions ~compliant r))
      0 audits
  in
  let implicated =
    List.fold_left
      (fun acc (_, r) -> acc + List.length (implicated_of r))
      0 audits
  in
  let residue = Zmail.World.epenny_residue world in
  if convicted > 0 then
    failwith
      (Printf.sprintf
         "E19 cell %s: %d convictions of honest ISPs — the wire adversary \
          must never get anyone convicted"
         label convicted);
  if residue <> 0 then
    failwith
      (Printf.sprintf "E19 cell %s: e-penny residue %d at quiescence" label
         residue);
  let c = Zmail.World.counters world in
  let link = Zmail.World.link_stats world in
  let bstats = Zmail.Bank.stats (Zmail.World.bank world) in
  let tap =
    match Zmail.World.bank_wire_taps world with (_, t) :: _ -> Some t | [] -> None
  in
  let tap_count f = match tap with Some t -> f t | None -> 0 in
  {
    attempts = !attempts;
    paid = !paid;
    delivered = c.Zmail.World.ham_delivered;
    buys = bstats.Zmail.Bank.buys;
    sells = bstats.Zmail.Bank.sells;
    retransmits = Sim.Stats.Counter.value link.Zmail.World.retransmits;
    bank_rejects = Sim.Stats.Counter.value link.Zmail.World.bank_rejects;
    rej_unreadable = reject_count bstats Zmail.Bank.Unreadable;
    rej_replayed = reject_count bstats Zmail.Bank.Replayed;
    rej_wrong_state = reject_count bstats Zmail.Bank.Wrong_state;
    tap_forged = tap_count BW.forged;
    tap_replayed = tap_count BW.replayed;
    tap_delayed = tap_count BW.delayed;
    tap_dropped = tap_count BW.dropped;
    audits = List.length audits;
    deferred_rounds = Sim.Stats.Counter.value link.Zmail.World.audits_deferred;
    convicted;
    implicated;
    residue;
    metrics = Obs.Metrics.to_table (Zmail.World.metrics world);
  }

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

type fed_outcome = {
  rounds : int;
  clr_messages : int;
  applied : int;
  duplicates : int;
  max_carry : int;
  end_carry : int;
  flagged : (int * string) list;  (* last statement verification *)
  fed_unbacked : int;
  violations : int;
  suspects_raw : int list;
  bank_sus : int list;
  suspects_cleared : int list;
  money_ok : bool;
}

let ints l = if l = [] then "-" else String.concat "," (List.map string_of_int l)

(* The clearing mesh severs the last bank from everyone else across
   settlement days 4..8: transfers planned toward it become carry and
   must drain after heal. *)
let fed_partition ~n_banks =
  let groups = Array.make n_banks 0 in
  groups.(n_banks - 1) <- 1;
  [ Sim.Fault.Mesh.partition ~start:(4. *. day) ~stop:(8. *. day) ~groups ]

let run_fed_cell ~seed ~n_banks ~(chaos : chaos) ~behavior_name ~behavior =
  let label = Printf.sprintf "%s/%s" behavior_name chaos.clabel in
  let n_isps = 2 * n_banks in
  let engine = Sim.Engine.create ~seed () in
  let rng = Sim.Rng.stream ~seed ~tag:0xfed19 in
  let mesh =
    Sim.Fault.Mesh.create ~default:chaos.plan
      ~partitions:(if chaos.partitioned then fed_partition ~n_banks else [])
      ~n_nodes:n_banks engine
      (Sim.Rng.stream ~seed ~tag:0xc1ea7)
  in
  let behaviors = Array.make n_banks Zmail.Federation.Honest_bank in
  behaviors.(byz_bank) <- behavior;
  let fed_cfg =
    { (Zmail.Federation.default_config ~n_banks ~n_isps) with
      Zmail.Federation.behaviors }
  in
  let fed = Zmail.Federation.create rng fed_cfg in
  let expected_money = Zmail.Federation.total_money fed in
  let compliant = Array.make n_isps true in
  let kernels =
    Array.init n_isps (fun i ->
        let bank = Zmail.Federation.home_of fed ~isp:i in
        Zmail.Isp.create rng
          { (Zmail.Isp.default_config ~index:i ~n_isps ~n_users:5 ~compliant
               ~bank_public:(Zmail.Federation.public_key fed ~bank))
            with
            Zmail.Isp.initial_balance = 400;
            daily_limit = 10_000;
            minavail = 200;
            maxavail = 900;
            initial_avail = 500;
            buy_amount = 500;
          })
  in
  (* ISP<->bank pool exchanges run on a perfect synchronous link here —
     part 1 already stresses that hop; this column stresses the
     bank<->bank wire only. *)
  let exchange_pools () =
    Array.iteri
      (fun i kernel ->
        match Zmail.Isp.pool_action kernel with
        | None -> ()
        | Some sealed -> (
            match Zmail.Federation.on_isp_message fed ~from_isp:i sealed with
            | Zmail.Federation.Reply signed ->
                ignore (Zmail.Isp.on_bank_message kernel signed)
            | Zmail.Federation.Rejected _ -> ()))
      kernels
  in
  let clr = Zmail.Clearing.create ~engine ~mesh fed in
  (* Asymmetric cross-bank flow: members of the lower-half banks blast
     members of the upper half, so e-pennies and cash positions drift
     across the clearing boundary (E15's scenario, mesh-routed). *)
  let senders =
    List.filter
      (fun i -> Zmail.Federation.home_of fed ~isp:i < n_banks / 2)
      (List.init n_isps (fun i -> i))
  in
  let receivers =
    List.filter
      (fun i -> Zmail.Federation.home_of fed ~isp:i >= n_banks / 2)
      (List.init n_isps (fun i -> i))
  in
  let pick rng l = List.nth l (Sim.Rng.int rng (List.length l)) in
  let max_carry = ref 0 in
  let flagged = ref [] in
  let money_ok = ref true in
  let check_money () =
    if Zmail.Federation.total_money fed <> expected_money then begin
      money_ok := false;
      failwith
        (Printf.sprintf
           "E19 federation cell %s: total money %d <> %d — conservation \
            broken"
           label
           (Zmail.Federation.total_money fed)
           expected_money)
    end
  in
  let settle () =
    let statements = Zmail.Federation.statements fed in
    flagged := Zmail.Federation.verify_statements fed statements;
    let exclude = List.map fst !flagged in
    ignore (Zmail.Clearing.settle_round ~exclude clr);
    max_carry := Stdlib.max !max_carry (Zmail.Clearing.pending_amount clr)
  in
  for d = 1 to fed_days do
    for _ = 1 to 60 * List.length senders do
      let s = pick rng senders and r = pick rng receivers in
      if Zmail.Isp.charge_send kernels.(s) ~sender:0 ~dest_isp:r
         = Zmail.Isp.Sent_paid
      then ignore (Zmail.Isp.accept_delivery kernels.(r) ~from_isp:s ~rcpt:0)
    done;
    for _ = 1 to 15 do
      let s = pick rng receivers and r = pick rng senders in
      if Zmail.Isp.charge_send kernels.(s) ~sender:1 ~dest_isp:r
         = Zmail.Isp.Sent_paid
      then ignore (Zmail.Isp.accept_delivery kernels.(r) ~from_isp:s ~rcpt:1)
    done;
    Array.iter
      (fun kernel ->
        let ledger = Zmail.Isp.ledger kernel in
        for u = 0 to 4 do
          let balance = Zmail.Ledger.balance ledger ~user:u in
          if balance > 450 then
            ignore (Zmail.Ledger.user_sell ledger ~user:u ~amount:(balance - 400));
          if balance < 50 then
            ignore (Zmail.Ledger.user_buy ledger ~user:u ~amount:100)
        done)
      kernels;
    exchange_pools ();
    Array.iter Zmail.Isp.end_of_day kernels;
    if d mod settle_every = 0 then settle ();
    Sim.Engine.run engine ~until:(float_of_int d *. day);
    max_carry := Stdlib.max !max_carry (Zmail.Clearing.pending_amount clr);
    check_money ()
  done;
  (* Heal and drain: every partition window is over, so retries must
     deliver the carry; a final round converges the included banks. *)
  Sim.Engine.run engine;
  settle ();
  Sim.Engine.run engine;
  check_money ();
  let end_carry = Zmail.Clearing.pending_amount clr in
  if end_carry <> 0 then
    failwith
      (Printf.sprintf
         "E19 federation cell %s: %d pennies of carry never drained" label
         end_carry);
  (* Global audit across bank lines: a lying home bank tampers its
     members' rows, so the violation pattern must attribute to the
     bank and clear the members. *)
  let requests = Zmail.Federation.start_audit fed in
  let result = ref None in
  List.iter
    (fun (i, signed) ->
      ignore (Zmail.Isp.on_bank_message kernels.(i) signed);
      let reply = Zmail.Isp.thaw kernels.(i) in
      match Zmail.Federation.on_audit_reply fed ~from_isp:i reply with
      | Ok (Some r) -> result := Some r
      | Ok None | Error _ -> ())
    requests;
  let violations, suspects_raw, bank_sus, suspects_cleared =
    match !result with
    | None -> failwith (Printf.sprintf "E19 federation cell %s: audit never completed" label)
    | Some r ->
        let bank_sus = Zmail.Federation.bank_suspects fed r in
        let cleared =
          Zmail.Federation.suspects_excluding_banks fed r ~banks:bank_sus
        in
        (List.length r.Zmail.Bank.violations, r.Zmail.Bank.suspects, bank_sus, cleared)
  in
  if suspects_cleared <> [] then
    failwith
      (Printf.sprintf
         "E19 federation cell %s: honest member ISPs [%s] still suspect \
          after bank attribution"
         label (ints suspects_cleared));
  (match behavior with
  | Zmail.Federation.Honest_bank ->
      if !flagged <> [] || bank_sus <> [] then
        failwith
          (Printf.sprintf
             "E19 federation cell %s: honest bank flagged — false positive"
             label)
  | Zmail.Federation.Over_issue _ | Zmail.Federation.Skim_position _ ->
      if not (List.mem_assoc byz_bank !flagged) then
        failwith
          (Printf.sprintf
             "E19 federation cell %s: Byzantine bank escaped statement \
              verification"
             label)
  | Zmail.Federation.Lie_in_audit _ ->
      if bank_sus <> [ byz_bank ] then
        failwith
          (Printf.sprintf
             "E19 federation cell %s: audit lie attributed to banks [%s], \
              expected [%d]"
             label (ints bank_sus) byz_bank));
  let s = Zmail.Federation.stats fed in
  {
    rounds = Zmail.Clearing.rounds clr;
    clr_messages = Zmail.Clearing.messages clr;
    applied = s.Zmail.Federation.transfers_applied;
    duplicates = s.Zmail.Federation.transfers_duplicate;
    max_carry = !max_carry;
    end_carry;
    flagged = !flagged;
    fed_unbacked = Zmail.Federation.unbacked fed ~bank:byz_bank;
    violations;
    suspects_raw;
    bank_sus;
    suspects_cleared;
    money_ok = !money_ok;
  }

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let run ?obs ?persist ?(seed = 19) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let tracer = Obs.Run.tracer_or obs ~capacity:512 in
  let n_isps, users_per_isp, sends_per_user =
    if full then (100, 1000, 3) else (10, 100, 3)
  in
  let cells =
    List.concat_map
      (fun behavior -> List.map (fun fl -> (behavior, fl)) fault_levels)
      wire_adversaries
  in
  let outcomes =
    List.mapi
      (fun k (behavior, fl) ->
        ( behavior,
          fl,
          run_cell ~tracer ~persist ~seed:(seed + k) ~n_isps ~users_per_isp
            ~sends_per_user ~fl ~behavior ))
      cells
  in
  let adv_name = function Some b -> BW.name b | None -> "none" in
  let traffic =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E19 (Byzantine bank wire): goodput under a tapped ISP%d-bank \
            link (%d ISPs x %d users, %.0f days, audits every %g h; every \
            ISP honest)"
           tapped_isp n_isps users_per_isp days (audit_period /. hour))
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
  List.iter
    (fun (behavior, fl, o) ->
      Sim.Table.add_row traffic
        [
          adv_name behavior;
          fl.flabel;
          Sim.Table.cell_int o.attempts;
          Sim.Table.cell_int o.paid;
          Sim.Table.cell_int o.delivered;
          Sim.Table.cell_pct (float_of_int o.delivered /. float_of_int o.attempts);
          Sim.Table.cell_int o.buys;
          Sim.Table.cell_int o.sells;
          Sim.Table.cell_int o.retransmits;
          Sim.Table.cell_int o.bank_rejects;
          Sim.Table.cell_int o.audits;
          Sim.Table.cell_int o.deferred_rounds;
        ])
    outcomes;
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
          "rej replayed";
          "rej wrong-state";
          "implicated";
          "convicted";
          "residue";
        ]
  in
  List.iter
    (fun (behavior, fl, o) ->
      Sim.Table.add_row detection
        [
          adv_name behavior;
          fl.flabel;
          Sim.Table.cell_int o.tap_forged;
          Sim.Table.cell_int o.tap_replayed;
          Sim.Table.cell_int o.tap_delayed;
          Sim.Table.cell_int o.tap_dropped;
          Sim.Table.cell_int o.rej_unreadable;
          Sim.Table.cell_int o.rej_replayed;
          Sim.Table.cell_int o.rej_wrong_state;
          Sim.Table.cell_int o.implicated;
          Sim.Table.cell_int o.convicted;
          Sim.Table.cell_int o.residue;
        ])
    outcomes;
  let n_banks = if full then 16 else 4 in
  let fed_cells =
    List.concat_map
      (fun (name, b) -> List.map (fun c -> (name, b, c)) chaos_levels)
      bank_behaviors
  in
  let fed_outcomes =
    List.mapi
      (fun k (name, b, chaos) ->
        ( name,
          chaos,
          run_fed_cell ~seed:(seed + 1000 + k) ~n_banks ~chaos
            ~behavior_name:name ~behavior:b ))
      fed_cells
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
  List.iter
    (fun (name, chaos, o) ->
      Sim.Table.add_row federation
        [
          name;
          chaos.clabel;
          Sim.Table.cell_int o.rounds;
          Sim.Table.cell_int o.clr_messages;
          Sim.Table.cell_int o.applied;
          Sim.Table.cell_int o.duplicates;
          Sim.Table.cell_int o.max_carry;
          Sim.Table.cell_int o.end_carry;
          Sim.Table.cell_int o.fed_unbacked;
          (match o.flagged with
          | [] -> "-"
          | l ->
              String.concat ";"
                (List.map (fun (b, _) -> Printf.sprintf "bank %d" b) l));
          Sim.Table.cell_int o.violations;
          ints o.suspects_raw;
          ints o.bank_sus;
          ints o.suspects_cleared;
          (if o.money_ok then "exact" else "BROKEN");
        ])
    fed_outcomes;
  if obs.Obs.Run.metrics then
    match List.rev outcomes with
    | (_, _, last) :: _ -> [ traffic; detection; federation; last.metrics ]
    | [] -> [ traffic; detection; federation ]
  else [ traffic; detection; federation ]
