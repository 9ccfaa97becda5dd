(* Smoke and shape tests for the experiment harness: every experiment
   must run, produce its tables, and exhibit the qualitative shape the
   paper claims (the precise numbers live in EXPERIMENTS.md).  Every
   default table is also pinned byte for byte at its default seed:
   E1-E11, E13 and E14 against test/golden/paper_tables.txt, E15 and
   E19 against test/golden/federation_tables.txt, E16, E17, E18, E20
   and E21 against test/golden/grid_tables.txt, and E22 and E23
   against test/golden/durability_tables.txt; to regenerate them all
   after an intentional change:

     ZMAIL_BLESS_GOLDEN=$PWD/test/golden dune exec test/test_harness.exe
*)

let rows table = Sim.Table.rows table

let float_cell row i = float_of_string (List.nth row i)

(* E1: volume fraction strictly decreases along the price sweep and the
   multiplier at 1c is ~100x. *)
let test_e1_shape () =
  match Harness.E1_market.run ~seed:1 () with
  | [ table ] ->
      let volumes =
        List.map (fun row -> float_of_string (List.nth row 2)) (rows table)
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) "volume falls" true (non_increasing volumes);
      let at_penny = List.find (fun row -> List.hd row = "1") (rows table) in
      Alcotest.(check string) "100x multiplier" "101x" (List.nth at_penny 5)
  | _ -> Alcotest.fail "expected one table"

let test_e3_shape () =
  match Harness.E3_detection.run ~seed:3 () with
  | [ table ] ->
      Alcotest.(check int) "five scenarios" 5 (List.length (rows table));
      List.iter
        (fun row ->
          Alcotest.(check string) "perfect precision" "100.00%" (List.nth row 5);
          Alcotest.(check string) "perfect recall" "100.00%" (List.nth row 6))
        (rows table)
  | _ -> Alcotest.fail "expected one table"

let test_e5_shape () =
  match Harness.E5_adoption.run ~seed:5 () with
  | [ _baseline; _weak; summary ] -> (
      match rows summary with
      | [ [ "baseline"; baseline_days ]; [ "weak network effect"; weak ] ] ->
          Alcotest.(check bool) "baseline reaches majority" true
            (int_of_string_opt baseline_days <> None);
          Alcotest.(check string) "weak effect stalls" "never (within 365d)" weak
      | _ -> Alcotest.fail "unexpected summary rows")
  | _ -> Alcotest.fail "expected three tables"

let test_e6_shape () =
  match Harness.E6_zombies.run ~seed:6 () with
  | [ table ] ->
      let body = rows table in
      Alcotest.(check int) "six limits" 6 (List.length body);
      (* Liability grows with the limit; unlimited never detects. *)
      let last = List.nth body (List.length body - 1) in
      Alcotest.(check string) "unlimited row" "unlimited" (List.hd last);
      Alcotest.(check string) "never detected" "never" (List.nth last 4);
      let first = List.hd body in
      Alcotest.(check bool) "tight limit detects fast" true
        (float_cell first 4 <= 2.)
  | _ -> Alcotest.fail "expected one table"

let test_e9_shape () =
  match Harness.E9_sender_cost.run ~seed:9 () with
  | [ table ] ->
      let body = rows table in
      Alcotest.(check int) "four hashcash rows + zmail" 5 (List.length body);
      let zmail = List.nth body 4 in
      Alcotest.(check string) "zmail deters" "yes" (List.nth zmail 4)
  | _ -> Alcotest.fail "expected one table"

let test_e11_shape () =
  match Harness.E11_replay.run ~seed:11 () with
  | [ table ] ->
      List.iter
        (fun row ->
          Alcotest.(check string)
            (List.hd row ^ ": hardened kernels move no money")
            "0" (List.nth row 1))
        (rows table);
      (* The two replay rows leak money in the ablated column. *)
      let ablated_leaks =
        List.filter (fun row -> List.nth row 2 <> "0") (rows table)
      in
      Alcotest.(check int) "two ablated leaks" 2 (List.length ablated_leaks)
  | _ -> Alcotest.fail "expected one table"

let test_e13_shape () =
  match Harness.E13_audit_period.run ~seed:13 () with
  | [ table ] ->
      let body = rows table in
      Alcotest.(check int) "four periods" 4 (List.length body);
      (* Settlement messages fall, exposure rises, along the sweep. *)
      let messages = List.map (fun r -> float_cell r 2) body in
      let stolen = List.map (fun r -> float_cell r 5) body in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) "messages fall" true (non_increasing messages);
      Alcotest.(check bool) "exposure grows" true (non_decreasing stolen)
  | _ -> Alcotest.fail "expected one table"

let test_e14_shape () =
  match Harness.E14_policies.run ~seed:14 () with
  | [ table ] -> (
      match rows table with
      | [ deliver; filter; discard ] ->
          let spam r = float_cell r 1 and ham r = float_cell r 2 in
          Alcotest.(check bool) "deliver: all spam through" true (spam deliver > 0.);
          Alcotest.(check bool) "filter: less spam than deliver" true
            (spam filter < spam deliver);
          Alcotest.(check bool) "filter keeps ham" true (ham filter > 0.);
          Alcotest.(check (float 0.)) "discard: no spam" 0. (spam discard);
          Alcotest.(check (float 0.)) "discard: no unpaid ham either" 0. (ham discard)
      | _ -> Alcotest.fail "expected three policies")
  | _ -> Alcotest.fail "expected one table"

let test_e15_shape () =
  match Harness.E15_federation.run ~seed:15 () with
  | [ positions; clearing; audit ] ->
      Alcotest.(check int) "two banks" 2 (List.length (rows positions));
      (* Positions sum to zero before settlement. *)
      let total =
        List.fold_left (fun acc row -> acc +. float_cell row 2) 0. (rows positions)
      in
      Alcotest.(check (float 0.001)) "positions sum to zero" 0. total;
      Alcotest.(check bool) "settlement happened or not needed" true
        (rows clearing <> []);
      (match rows audit with
      | [ [ violations; suspects ] ] ->
          Alcotest.(check string) "clean audit" "0" violations;
          Alcotest.(check string) "no suspects" "-" suspects
      | _ -> Alcotest.fail "unexpected audit rows")
  | _ -> Alcotest.fail "expected three tables"

(* Tables at their default seeds, rendered as the CLI prints them,
   against a committed golden; [ZMAIL_BLESS_GOLDEN] rewrites it. *)
let check_golden ~file ~what tables =
  let live =
    Format.asprintf "%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline Sim.Table.pp)
      tables
  in
  match Sys.getenv_opt "ZMAIL_BLESS_GOLDEN" with
  | Some dir ->
      let out = Filename.concat dir (Filename.basename file) in
      Out_channel.with_open_bin out (fun oc -> output_string oc live);
      Printf.eprintf "blessed %s\n%!" out
  | None ->
      let golden = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check string)
        (what ^ " tables match the golden (regenerate per the header comment \
                 if the change is intentional)")
        golden live

let test_federation_golden () =
  check_golden ~file:"golden/federation_tables.txt" ~what:"E15/E19"
    (Harness.E15_federation.run () @ Harness.E19_bank_wire.run ())

(* The chaos, scale, adversary, serving and collusion experiments share
   their cell machinery; their default tables pin it. *)
let test_grid_golden () =
  check_golden ~file:"golden/grid_tables.txt" ~what:"E16/E17/E18/E20/E21"
    (Harness.E16_chaos.run () @ Harness.E17_scale.run ()
    @ Harness.E18_adversary.run () @ Harness.E20_serving.run ()
    @ Harness.E21_collusion.run ())

(* The paper's own experiments and the ablations, each at its default
   seed. *)
let test_paper_golden () =
  check_golden ~file:"golden/paper_tables.txt" ~what:"E1-E11/E13/E14"
    (Harness.E1_market.run () @ Harness.E2_zero_sum.run ()
    @ Harness.E3_detection.run () @ Harness.E4_accounting.run ()
    @ Harness.E5_adoption.run () @ Harness.E6_zombies.run ()
    @ Harness.E7_listserv.run () @ Harness.E8_filters.run ()
    @ Harness.E9_sender_cost.run () @ Harness.E10_snapshot.run ()
    @ Harness.E11_replay.run () @ Harness.E13_audit_period.run ()
    @ Harness.E14_policies.run ())

(* Multi-domain determinism and the WAL crash-point sweep. *)
let test_durability_golden () =
  check_golden ~file:"golden/durability_tables.txt" ~what:"E22/E23"
    (Harness.E22_parworld.run () @ Harness.E23_crashpoint.run ())

let test_registry () =
  Alcotest.(check int) "twenty-two experiments" 22 (List.length Harness.Experiments.all);
  Alcotest.(check bool) "find e7" true (Harness.Experiments.find "E7" <> None);
  Alcotest.(check bool) "find e23" true (Harness.Experiments.find "e23" <> None);
  Alcotest.(check bool) "unknown id" true (Harness.Experiments.find "e99" = None);
  (* Ids are unique and well-formed. *)
  let ids = List.map (fun e -> e.Harness.Experiments.id) Harness.Experiments.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Harness.Experiments.id ^ " has a claim")
        true
        (String.length e.Harness.Experiments.claim > 10))
    Harness.Experiments.all

(* E1 never drives a checkpointed segment, so checkpoint flags given to
   it must be reported, not silently ignored. *)
let test_checkpoint_flags_need_a_segment () =
  let file =
    Filename.concat (Filename.get_temp_dir_name ()) "zmail_test_e1_unused.snap"
  in
  if Sys.file_exists file then Sys.remove file;
  let persist =
    Harness.Checkpoint.create ~stop_at:100. ~snapshot:file ~experiment:"e1" ()
  in
  let e1 = Option.get (Harness.Experiments.find "e1") in
  ignore
    (e1.Harness.Experiments.run ~full:false ~seed:0 ~obs:Obs.Run.none ~persist
       ~domains:None);
  (match Harness.Checkpoint.finished persist with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "flags that drove no segment were accepted");
  Alcotest.(check bool) "no snapshot written" false (Sys.file_exists file);
  Alcotest.(check bool) "inert driver still finishes clean" true
    (Harness.Checkpoint.finished Harness.Checkpoint.none = Ok ())

(* A domain count below 1 is refused before any experiment runs. *)
let test_domains_below_one () =
  List.iter
    (fun d ->
      (match Harness.Experiments.run_one ~domains:d "e22" with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "run_one accepted --domains %d" d);
      match Harness.Experiments.run_all ~domains:d () with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "run_all accepted --domains %d" d)
    [ 0; -1 ]

(* The slower world-backed experiments, marked Slow so `dune runtest`
   stays fast in the default alcotest quick mode. *)
let test_e2_runs () =
  match Harness.E2_zero_sum.run ~seed:2 ~days:3. ~isps:2 ~users_per_isp:30 () with
  | [ drift; totals ] ->
      Alcotest.(check bool) "profiles reported" true (rows drift <> []);
      Alcotest.(check int) "one totals row" 1 (List.length (rows totals))
  | _ -> Alcotest.fail "expected two tables"

let test_e7_runs () =
  match Harness.E7_listserv.run ~seed:7 () with
  | [ table ] ->
      (match rows table with
      | all_live :: _ ->
          Alcotest.(check string) "net zero with acks and live roster" "0"
            (List.nth all_live 4)
      | [] -> Alcotest.fail "no rows");
      Alcotest.(check int) "four scenarios" 4 (List.length (rows table))
  | _ -> Alcotest.fail "expected one table"

let test_e17_scale_runs () =
  (* A miniature scale row through the full E17 machinery: Zipf
     workload, scaled pools, online checkers, quiescent drain.  The
     real scales live in the experiment itself (and perfbench's
     zipf_scale); this pins the wiring and the zero-sum/detection
     outcome. *)
  (* 30 sends/user: enough traffic that the Zipf head exhausts its
     balance and drives auto-topups through the ISP pool, so the
     buy/sell loop (and its exactly-once checker) engages even at this
     miniature population. *)
  let o =
    Harness.E17_scale.run_scale ~seed:17 ~n_isps:4 ~users_per_isp:50
      ~sends_per_user:30 ()
  in
  Alcotest.(check int) "all sends accounted" o.Harness.E17_scale.attempts
    (o.Harness.E17_scale.paid + o.Harness.E17_scale.free
    + o.Harness.E17_scale.deferred + o.Harness.E17_scale.blocked
    + o.Harness.E17_scale.failed);
  Alcotest.(check bool) "mail delivered" true (o.Harness.E17_scale.delivered > 0);
  Alcotest.(check bool) "audits completed" true (o.Harness.E17_scale.audits >= 4);
  Alcotest.(check bool) "cheat minted" true (o.Harness.E17_scale.minted > 0);
  Alcotest.(check int) "residue equals minted" o.Harness.E17_scale.minted
    o.Harness.E17_scale.residue;
  Alcotest.(check int) "no false accusations" 0
    o.Harness.E17_scale.false_accusations

(* A miniature crash-point sweep through the full Crashpoint machinery:
   WAL-backed kernels and bank, torn-tail faults on, victims rotating
   over both ISPs and the bank.  No cheater here, so the conservation
   oracle demands literal zero residue after every crash. *)
let test_crashpoint_sweep () =
  let n_isps = 2 and users_per_isp = 2 and days = 0.5 in
  let build () =
    let world =
      Zmail.World.create
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed = 230;
          audit_period = Some (4. *. Sim.Engine.hour);
          disk = Some (Sim.Disk.plan ~torn:0.5 ~rot:0.25 ());
          wal_group = 4;
          customize_isp =
            (fun _ cfg ->
              { cfg with Zmail.Isp.initial_avail = 150; minavail = 200; buy_amount = 300 });
        }
    in
    let engine = Zmail.World.engine world in
    for g = 0 to (n_isps * users_per_isp) - 1 do
      for k = 0 to 2 do
        ignore
          (Sim.Engine.schedule_after engine
             ~delay:(float_of_int ((g * 501) + (k * 9000)))
             (fun () ->
               let target = (g + 1) mod (n_isps * users_per_isp) in
               ignore
                 (Zmail.World.send_email world
                    ~from:(g / users_per_isp, g mod users_per_isp)
                    ~to_:(target / users_per_isp, target mod users_per_isp)
                    ())))
      done
    done;
    world
  in
  let n = Harness.Crashpoint.baseline_events ~build ~days in
  Alcotest.(check bool) "baseline has events" true (n > 0);
  let r =
    Harness.Crashpoint.sweep ~build ~days ~downtime:(0.5 *. Sim.Engine.hour)
      ~honest:(fun _ -> true)
      ~n_isps ~stride:(max 1 (n / 9)) ()
  in
  Alcotest.(check int) "baseline re-measured identically" n
    r.Harness.Crashpoint.baseline_events;
  (* A missed crash point, an unrecovered crash, a WAL fallback, a
     residue off the cheat-minted total or a silent checker would have
     raised inside the sweep. *)
  let s = Harness.Crashpoint.summarize r in
  Alcotest.(check bool) "several points" true (s.Harness.Crashpoint.points >= 6);
  Alcotest.(check bool) "bank took a crash" true
    (s.Harness.Crashpoint.bank_crashes > 0);
  List.iter
    (fun run ->
      Alcotest.(check int)
        (Printf.sprintf "zero residue at p=%d" run.Harness.Crashpoint.point)
        0 run.Harness.Crashpoint.residue)
    r.Harness.Crashpoint.runs;
  (* Determinism: the same sweep again is the same report. *)
  let r' =
    Harness.Crashpoint.sweep ~build ~days ~downtime:(0.5 *. Sim.Engine.hour)
      ~honest:(fun _ -> true)
      ~n_isps ~stride:(max 1 (n / 9)) ()
  in
  Alcotest.(check bool) "sweep is deterministic" true (r = r')

(* A sampled sweep of a world on two member banks: victims rotate over
   the four ISPs and both banks, so bank 1 takes crashes too, with
   rounds that close only once both banks have collected. *)
let test_crashpoint_two_banks () =
  let n_isps = 4 and users_per_isp = 2 and days = 0.5 in
  let build () =
    let world =
      Zmail.World.create
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed = 231;
          audit_period = Some (4. *. Sim.Engine.hour);
          disk = Some (Sim.Disk.plan ~torn:0.5 ());
          banks = Zmail.Federation.default_config ~n_banks:2 ~n_isps;
          customize_isp =
            (fun _ cfg ->
              { cfg with Zmail.Isp.initial_avail = 150; minavail = 200; buy_amount = 300 });
        }
    in
    let engine = Zmail.World.engine world in
    for g = 0 to (n_isps * users_per_isp) - 1 do
      for k = 0 to 1 do
        ignore
          (Sim.Engine.schedule_after engine
             ~delay:(float_of_int ((g * 701) + (k * 13000)))
             (fun () ->
               let target = (g + 3) mod (n_isps * users_per_isp) in
               ignore
                 (Zmail.World.send_email world
                    ~from:(g / users_per_isp, g mod users_per_isp)
                    ~to_:(target / users_per_isp, target mod users_per_isp)
                    ())))
      done
    done;
    world
  in
  let n = Harness.Crashpoint.baseline_events ~build ~days in
  let r =
    Harness.Crashpoint.sweep ~n_banks:2 ~build ~days ~downtime:(0.5 *. Sim.Engine.hour)
      ~honest:(fun _ -> true)
      ~n_isps ~stride:(max 1 (n / 12)) ()
  in
  (* Every crash fired and recovered without a WAL fallback, money was
     conserved and nobody was convicted, or the sweep would have
     raised. *)
  Alcotest.(check bool) "bank 1 took a crash" true
    (List.exists
       (fun run -> run.Harness.Crashpoint.victim = Harness.Crashpoint.Bank 1)
       r.Harness.Crashpoint.runs)

(* An E23-shaped world (3 ISPs x 3 users, ISP 1 faking receives)
   swept with an [honest] mask that wrongly includes the cheater: the
   audit convicts it, and the sweep must fail in its first crashed
   run, naming the point and the victim. *)
let test_crashpoint_names_failing_run () =
  let n_isps = 3 and users_per_isp = 3 and days = 1.2 in
  let build () =
    let world =
      Zmail.World.create
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed = 232;
          audit_period = Some (6. *. Sim.Engine.hour);
          disk = Some Sim.Disk.reliable;
          customize_isp =
            (fun i cfg ->
              let cfg =
                { cfg with Zmail.Isp.initial_avail = 150; minavail = 200; buy_amount = 300 }
              in
              if i = 1 then { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives 2 }
              else cfg);
        }
    in
    Harness.Cell.rotation world ~sends_per_user:4 ~days ~offset:307. ~step:5 ignore;
    world
  in
  let stride = Harness.Crashpoint.baseline_events ~build ~days / 4 in
  match
    Harness.Crashpoint.sweep ~build ~days ~downtime:Sim.Engine.hour
      ~honest:(fun _ -> true)
      ~n_isps ~stride ()
  with
  | _ -> Alcotest.fail "a sweep that convicts an ISP marked honest passed"
  | exception Failure msg ->
      let prefix = Printf.sprintf "crash run p%d-isp0: honest ISP 1 convicted" stride in
      Alcotest.(check string) "names the point and the victim" prefix
        (String.sub msg 0 (Stdlib.min (String.length msg) (String.length prefix)))

(* A grid cell at one user per ISP: the population-sized pool must
   still serve the world's 50-penny auto-top-up, or the heavy senders
   are blocked for good and no buy ever reaches exactly-once. *)
let test_pool_serves_topup () =
  let cell =
    Harness.Cell.run
      {
        Harness.Cell.name = "pool";
        tracer = Obs.Trace.create ~capacity:64 ();
        persist = Harness.Checkpoint.none;
        n_isps = 8;
        users_per_isp = 1;
        sends_per_user = 60;
        severed = [];
      }
      ~seed:1 Harness.Cell.calm ~label:"1 user per ISP" ()
  in
  Alcotest.(check bool) "the bank served buys" true
    ((Zmail.Bank.stats (Zmail.World.bank cell.Harness.Cell.world)).Zmail.Bank.buys > 0)

let () =
  Alcotest.run "harness"
    [
      ( "shapes",
        [
          Alcotest.test_case "e1 market" `Quick test_e1_shape;
          Alcotest.test_case "e3 detection" `Slow test_e3_shape;
          Alcotest.test_case "e5 adoption" `Quick test_e5_shape;
          Alcotest.test_case "e6 zombies" `Quick test_e6_shape;
          Alcotest.test_case "e9 sender cost" `Slow test_e9_shape;
          Alcotest.test_case "e11 replay" `Quick test_e11_shape;
          Alcotest.test_case "e13 audit period" `Slow test_e13_shape;
          Alcotest.test_case "e14 policies" `Slow test_e14_shape;
          Alcotest.test_case "e15 federation" `Quick test_e15_shape;
        ] );
      ( "golden",
        [
          Alcotest.test_case "e15 and e19 tables" `Quick test_federation_golden;
          Alcotest.test_case "e16-e18, e20 and e21 tables" `Quick test_grid_golden;
          Alcotest.test_case "e1-e11, e13 and e14 tables" `Quick test_paper_golden;
          Alcotest.test_case "e22 and e23 tables" `Quick test_durability_golden;
        ] );
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry;
          Alcotest.test_case "checkpoint flags need a segment" `Quick
            test_checkpoint_flags_need_a_segment;
          Alcotest.test_case "domains below one refused" `Quick
            test_domains_below_one;
        ] );
      ( "world-backed",
        [
          Alcotest.test_case "e2 runs" `Slow test_e2_runs;
          Alcotest.test_case "e7 runs" `Slow test_e7_runs;
          Alcotest.test_case "e17 scale runs" `Slow test_e17_scale_runs;
          Alcotest.test_case "crashpoint sweep" `Quick test_crashpoint_sweep;
          Alcotest.test_case "crashpoint sweep on two banks" `Quick
            test_crashpoint_two_banks;
          Alcotest.test_case "crashpoint names the failing run" `Quick
            test_crashpoint_names_failing_run;
          Alcotest.test_case "pool serves a top-up at 1 user per ISP" `Quick
            test_pool_serves_topup;
        ] );
    ]
