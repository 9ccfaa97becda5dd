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

(* A multiplier coprime to [universe] scatters Zipf ranks across the
   global user space: rank 1 (the heaviest sender) lands on an
   arbitrary ISP instead of every heavy rank piling onto ISP 0, which
   would turn the experiment into a single-ISP hot spot. *)
let stride_for universe =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec find c = if gcd c universe = 1 then c else find (c + 1) in
  find 7919

let run_scale ?tracer ?(persist = Checkpoint.none) ~seed ~n_isps ~users_per_isp
    ?(sends_per_user = 3) () =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp) with
        Zmail.World.seed;
        audit_period = Some (12. *. hour);
        (* Mailboxes are the one structure that grows linearly with
           delivered mail; at 10^5+ users retaining every message is
           the difference between a flat and an unbounded heap. *)
        retain_mail = false;
        tracer;
        customize_isp =
          (fun i cfg ->
            (* Zombie containment (E6) is deliberately out of the way:
               a Zipf head sender would saturate the default 500/day
               limit and the run would measure the throttle, not the
               economics.  Balance blocks remain live (auto_topup
               rescues them) and are reported. *)
            let cfg = { cfg with Zmail.Isp.daily_limit = 1_000_000 } in
            (* The default pool bounds are sized for 25-user toy
               worlds; at 1000 users/ISP the hourly §4.3 check cannot
               refill fast enough and auto-topups starve mid-hour.
               Scale the pool with the population — lean enough that
               heavy-sender ISPs keep crossing minavail (so the
               buy/sell loop and its exactly-once checker stay live),
               refilling in population-sized buys so a block means
               "the kernel said no", not "the pool ran dry". *)
            let cfg =
              {
                cfg with
                Zmail.Isp.initial_avail = 2 * users_per_isp;
                minavail = users_per_isp;
                buy_amount = 5 * users_per_isp;
                maxavail = 20 * users_per_isp;
              }
            in
            if i = cheater then
              { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives fake_receives_per_day }
            else cfg);
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  let engine = Zmail.World.engine world in
  let rng = Sim.Engine.rng engine in
  let universe = n_isps * users_per_isp in
  let stride = stride_for universe in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  (* One shared Zipf sampler: the O(universe) cdf is built once and
     each draw is a binary search. *)
  let rank = Sim.Dist.zipf ~n:universe ~s:1.1 in
  let attempts = ref 0 in
  let paid = ref 0 in
  let free = ref 0 in
  let deferred = ref 0 in
  let blocked = ref 0 in
  let failed = ref 0 in
  let send () =
    let g = (rank rng - 1) * stride mod universe in
    let t = Sim.Dist.uniform_int rng ~lo:0 ~hi:(universe - 2) in
    let t = if t >= g then t + 1 else t in
    incr attempts;
    match Zmail.World.send_email world ~from:(of_global g) ~to_:(of_global t) () with
    | Zmail.World.Submitted `Paid -> incr paid
    | Zmail.World.Submitted `Free -> incr free
    | Zmail.World.Deferred_snapshot -> incr deferred
    | Zmail.World.Failed_down -> incr failed
    | Zmail.World.Backpressured -> incr failed
    | Zmail.World.Rejected _ -> incr blocked
  in
  (* The workload is a fixed budget of sends spread over [days] by a
     small fleet of self-rescheduling generators — the pending-event
     heap stays O(generators + mail in flight) instead of O(budget),
     which is what lets the million-user row fit in memory. *)
  let total_sends = universe * sends_per_user in
  let n_gen = Stdlib.min generators total_sends in
  let per_gen = total_sends / n_gen in
  let rate = float_of_int per_gen /. (0.9 *. days *. day) in
  for i = 0 to n_gen - 1 do
    let budget = per_gen + (if i < total_sends mod n_gen then 1 else 0) in
    let rec step remaining () =
      if remaining > 0 then begin
        send ();
        ignore
          (Sim.Engine.schedule_after engine
             ~delay:(Sim.Dist.exponential rng ~rate)
             (step (remaining - 1)))
      end
    in
    ignore (Sim.Engine.schedule_after engine ~delay:(float_of_int i *. 13.) (step budget))
  done;
  (try
     Checkpoint.drive persist ~label:(string_of_int universe) ~world
       ~days:(days +. 0.5) ();
     Zmail.World.run_until_quiet world;
     Zmail.World.check_invariants ~quiescent:true world
   with Obs.Invariant.Violation v ->
     Format.eprintf "%a@." Obs.Invariant.pp_violation v;
     raise (Obs.Invariant.Violation v));
  List.iter
    (fun c ->
      if Obs.Invariant.checks c = 0 then
        failwith ("E17: checker " ^ Obs.Invariant.name c ^ " never ran");
      Obs.Invariant.detach c)
    checkers;
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
    events = Sim.Engine.events_fired engine;
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
          "zero-sum holds";
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
          (if residue = 0 then "yes" else "NO");
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
          "zero-sum holds";
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
          (if o.residue = o.minted then "yes" else "NO");
        ])
    outcomes;
  (* Rows share nothing (each is its own world); under [--metrics]
     report the registry of the last — largest — row, mirroring E16's
     single metrics table. *)
  if obs.Obs.Run.metrics then
    match List.rev outcomes with
    | (_, last) :: _ -> [ table; last.metrics ]
    | [] -> [ table ]
  else [ table ]
