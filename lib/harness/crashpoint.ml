(* Exhaustive crash-point sweep: deterministically crash one victim at
   the p-th event boundary, recover from durable state, run to
   quiescence and check the money oracles.  See crashpoint.mli. *)

type victim = Isp of int | Bank of int

let victim_to_string = function
  | Isp i -> Printf.sprintf "isp%d" i
  | Bank 0 -> "bank"
  | Bank b -> Printf.sprintf "bank%d" b

type run_report = {
  point : int;
  victim : victim;
  crash_time : float;
  crashed : bool;
  recovered : bool;
  fallbacks : int;
  wal_replayed : int;
  torn_tails : int;
  lost_bytes : int;
  residue : int;
  minted : int;
  conserved : bool;
  false_convictions : int;
}

type report = {
  baseline_events : int;
  stride : int;
  runs : run_report list;
}

let baseline_events ~build ~days =
  let world = build () in
  Zmail.World.run_days world days;
  Zmail.World.run_until_quiet world;
  Sim.Engine.events_fired (Zmail.World.engine world)

(* One crashed run.  The engine monitor fires after every executed
   callback, so "the p-th event boundary" is precisely the instant the
   p-th callback has finished and the (p+1)-th has not started: the
   crash lands between events, never inside one — mutation, WAL append
   and flush inside a single callback stay atomic, which is the
   write-ahead guarantee the WAL design leans on (see Isp's record
   taxonomy comment).  Until the crash, each callback also pays the
   engine's two monotonic-clock reads for the [wall] this monitor
   ignores (a vDSO read each, no syscall); the monitor is cleared once
   the crash fires, so the remainder of the run pays nothing.  Note
   this claims the
   engine's monitor slot: a cfg.tracer-armed wall-clock monitor is
   displaced for the sweep run. *)
let crash_run ?persist ?label ~build ~days ~downtime ~honest ~point ~victim () =
  let world = build () in
  let engine = Zmail.World.engine world in
  let fired = ref 0 in
  let crash_time = ref nan in
  let crashed = ref false in
  Sim.Engine.set_monitor engine
    (Some
       (fun ~id:_ ~at:_ ~wall:_ ->
         incr fired;
         if !fired = point then begin
           crashed := true;
           crash_time := Sim.Engine.now engine;
           (match victim with
           | Isp i -> Zmail.World.crash_isp world ~isp:i ~downtime
           | Bank bank -> Zmail.World.crash_bank ~bank world ~downtime);
           Sim.Engine.set_monitor engine None
         end));
  (match (persist, label) with
  | Some persist, Some label ->
      Checkpoint.drive persist ~label ~world ~days ()
  | _ -> Zmail.World.run_days world days);
  Zmail.World.run_until_quiet world;
  Sim.Engine.set_monitor engine None;
  let link = Zmail.World.link_stats world in
  let v c = Sim.Stats.Counter.value c in
  let recovered =
    match victim with
    | Isp _ -> v link.Zmail.World.recoveries = v link.Zmail.World.crashes
    | Bank _ ->
        v link.Zmail.World.bank_recoveries = v link.Zmail.World.bank_crashes
  in
  let victim_disk, wal_replayed =
    match victim with
    | Isp i ->
        let k = Zmail.World.isp world i in
        (Zmail.Isp.disk k, Zmail.Isp.wal_replayed k)
    | Bank b ->
        let bank = Zmail.Federation.bank (Zmail.World.federation world) b in
        (Zmail.Bank.disk bank, Zmail.Bank.wal_replayed bank)
  in
  let residue = Zmail.World.epenny_residue world in
  let minted = Zmail.World.cheat_minted world in
  let false_convictions =
    List.fold_left
      (fun acc r ->
        acc + List.length (List.filter honest r.Zmail.Bank.convicted))
      0
      (Zmail.World.audit_results world)
  in
  {
    point;
    victim;
    crash_time = !crash_time;
    crashed = !crashed;
    recovered;
    fallbacks = v link.Zmail.World.wal_fallbacks;
    wal_replayed;
    torn_tails =
      (match victim_disk with Some d -> Sim.Disk.torn_tails d | None -> 0);
    lost_bytes =
      (match victim_disk with Some d -> Sim.Disk.lost_bytes d | None -> 0);
    residue;
    minted;
    (* The E16 bar: at quiescence the only un-backed money is what the
       cheat minted — [conservation_holds] itself is deliberately false
       in any run with a resident cheater. *)
    conserved = residue = minted;
    false_convictions;
  }

let sweep ?persist ?label_prefix ?(n_banks = 1) ~build ~days ~downtime ~honest
    ~n_isps ~stride () =
  if stride < 1 then invalid_arg "Crashpoint.sweep: stride must be >= 1";
  if n_isps < 1 then invalid_arg "Crashpoint.sweep: need at least one ISP";
  if n_banks < 1 then invalid_arg "Crashpoint.sweep: need at least one bank";
  let n = baseline_events ~build ~days in
  let runs = ref [] in
  let k = ref 0 in
  let point = ref stride in
  while !point <= n do
    (* Round-robin the victim so every ISP and every bank each take
       crashes spread across the whole timeline; with stride 1 every
       event boundary is crashed by some victim. *)
    let v = !k mod (n_isps + n_banks) in
    let victim = if v < n_isps then Isp v else Bank (v - n_isps) in
    let label =
      Option.map
        (fun p -> Printf.sprintf "%s/p%d-%s" p !point (victim_to_string victim))
        label_prefix
    in
    runs :=
      crash_run ?persist ?label ~build ~days ~downtime ~honest ~point:!point
        ~victim ()
      :: !runs;
    incr k;
    point := !point + stride
  done;
  { baseline_events = n; stride; runs = List.rev !runs }

type summary = {
  points : int;
  isp_crashes : int;
  bank_crashes : int;
  all_crashed : bool;
  all_recovered : bool;
  total_fallbacks : int;
  max_replayed : int;
  total_torn_tails : int;
  total_lost_bytes : int;
  all_conserved : bool;
  total_false_convictions : int;
}

let summarize r =
  let is_bank = function Bank _ -> true | Isp _ -> false in
  {
    points = List.length r.runs;
    isp_crashes = List.length (List.filter (fun x -> not (is_bank x.victim)) r.runs);
    bank_crashes = List.length (List.filter (fun x -> is_bank x.victim) r.runs);
    all_crashed = List.for_all (fun x -> x.crashed) r.runs;
    all_recovered = List.for_all (fun x -> x.recovered) r.runs;
    total_fallbacks = List.fold_left (fun a x -> a + x.fallbacks) 0 r.runs;
    max_replayed = List.fold_left (fun a x -> max a x.wal_replayed) 0 r.runs;
    total_torn_tails = List.fold_left (fun a x -> a + x.torn_tails) 0 r.runs;
    total_lost_bytes = List.fold_left (fun a x -> a + x.lost_bytes) 0 r.runs;
    all_conserved = List.for_all (fun x -> x.conserved) r.runs;
    total_false_convictions =
      List.fold_left (fun a x -> a + x.false_convictions) 0 r.runs;
  }
