(* Exhaustive crash-point sweep: deterministically crash one victim at
   the p-th event boundary, recover from durable state, and end the
   world through Cell: the online checkers, exact conservation at
   quiescence, and the sweep's own bars.  See crashpoint.mli. *)

type victim = Isp of int | Bank of int

let victim_to_string = function
  | Isp i -> Printf.sprintf "isp%d" i
  | Bank 0 -> "bank"
  | Bank b -> Printf.sprintf "bank%d" b

type run_report = {
  point : int;
  victim : victim;
  crash_time : float;
  wal_replayed : int;
  torn_tails : int;
  lost_bytes : int;
  residue : int;
  minted : int;
}

type report = {
  baseline_events : int;
  stride : int;
  runs : run_report list;
}

let baseline ~name ~build ~days =
  let world = build () in
  Cell.finish ~name ~persist:Checkpoint.none ~days world
    (Zmail.World.attach_invariants world);
  Sim.Engine.events_fired (Zmail.World.engine world)

let baseline_events = baseline ~name:"crash sweep baseline"

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
   this claims the engine's monitor slot: a cfg.tracer-armed
   wall-clock monitor is displaced for the sweep run. *)
let crash_run ~persist ~label ~build ~days ~downtime ~honest ~point ~victim =
  let name = "crash run " ^ label in
  let fail fmt = Printf.ksprintf (fun m -> failwith (name ^ ": " ^ m)) fmt in
  let world = build () in
  let checkers = Zmail.World.attach_invariants world in
  let engine = Zmail.World.engine world in
  let fired = ref 0 in
  let crash_time = ref nan in
  Sim.Engine.set_monitor engine
    (Some
       (fun ~id:_ ~at:_ ~wall:_ ->
         incr fired;
         if !fired = point then begin
           crash_time := Sim.Engine.now engine;
           (match victim with
           | Isp i -> Zmail.World.crash_isp world ~isp:i ~downtime
           | Bank bank -> Zmail.World.crash_bank ~bank world ~downtime);
           Sim.Engine.set_monitor engine None
         end));
  Cell.finish ~name ~persist ~label ~days world checkers;
  Sim.Engine.set_monitor engine None;
  if Float.is_nan !crash_time then fail "the crash point was never reached";
  let link = Zmail.World.link_stats world in
  let v c = Sim.Stats.Counter.value c in
  let crashes, recoveries =
    match victim with
    | Isp _ -> (link.Zmail.World.crashes, link.Zmail.World.recoveries)
    | Bank _ -> (link.Zmail.World.bank_crashes, link.Zmail.World.bank_recoveries)
  in
  if v recoveries <> v crashes then
    fail "%d crash(es) but %d recovery(ies)" (v crashes) (v recoveries);
  if v link.Zmail.World.wal_fallbacks <> 0 then
    fail "%d WAL replay(s) returned an error" (v link.Zmail.World.wal_fallbacks);
  List.iter
    (fun r ->
      match List.filter honest r.Zmail.Bank.convicted with
      | [] -> ()
      | i :: _ -> fail "honest ISP %d convicted in audit round %d" i r.Zmail.Bank.seq)
    (Zmail.World.audit_results world);
  let victim_disk, wal_replayed =
    match victim with
    | Isp i ->
        let k = Zmail.World.isp world i in
        (Zmail.Isp.disk k, Zmail.Isp.wal_replayed k)
    | Bank b ->
        let bank = Zmail.Federation.bank (Zmail.World.federation world) b in
        (Zmail.Bank.disk bank, Zmail.Bank.wal_replayed bank)
  in
  {
    point;
    victim;
    crash_time = !crash_time;
    wal_replayed;
    torn_tails =
      (match victim_disk with Some d -> Sim.Disk.torn_tails d | None -> 0);
    lost_bytes =
      (match victim_disk with Some d -> Sim.Disk.lost_bytes d | None -> 0);
    residue = Zmail.World.epenny_residue world;
    minted = Zmail.World.cheat_minted world;
  }

let sweep ?(persist = Checkpoint.none) ?label_prefix ?(n_banks = 1) ~build
    ~days ~downtime ~honest ~n_isps ~stride () =
  if stride < 1 then invalid_arg "Crashpoint.sweep: stride must be >= 1";
  if n_isps < 1 then invalid_arg "Crashpoint.sweep: need at least one ISP";
  if n_banks < 1 then invalid_arg "Crashpoint.sweep: need at least one bank";
  let run_label run =
    match label_prefix with Some p -> p ^ "/" ^ run | None -> run
  in
  let n = baseline ~name:("crash run " ^ run_label "baseline") ~build ~days in
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
      run_label (Printf.sprintf "p%d-%s" !point (victim_to_string victim))
    in
    runs :=
      crash_run ~persist ~label ~build ~days ~downtime ~honest ~point:!point
        ~victim
      :: !runs;
    incr k;
    point := !point + stride
  done;
  { baseline_events = n; stride; runs = List.rev !runs }

type summary = {
  points : int;
  isp_crashes : int;
  bank_crashes : int;
  max_replayed : int;
  total_torn_tails : int;
  total_lost_bytes : int;
}

let summarize r =
  let is_bank = function Bank _ -> true | Isp _ -> false in
  let banks = List.length (List.filter (fun x -> is_bank x.victim) r.runs) in
  let points = List.length r.runs in
  {
    points;
    isp_crashes = points - banks;
    bank_crashes = banks;
    max_replayed = List.fold_left (fun a x -> max a x.wal_replayed) 0 r.runs;
    total_torn_tails = List.fold_left (fun a x -> a + x.torn_tails) 0 r.runs;
    total_lost_bytes = List.fold_left (fun a x -> a + x.lost_bytes) 0 r.runs;
  }
