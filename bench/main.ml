(* Benchmark and experiment harness.

   Usage:
     main.exe            run every experiment table (E1-E23) then the
                         E12 micro-benchmarks
     main.exe e7         run one experiment
     main.exe micro      run only the micro-benchmarks
     main.exe list       list experiments

   Flags (experiment runs): --metrics appends each instrumented
   experiment's metric-registry table; --trace FILE records the event
   trace and writes it out (--trace-format jsonl|chrome); --json FILE
   times every experiment (plus engine throughput, the reduced E17
   scale row, a serving-path E20 cell, §4.4 audit-verify cost at 100
   and 1000 ISPs, inter-bank clearing at 4 and 16 member banks,
   snapshot I/O, the Parworld multi-domain stepping row, the
   incremental-snapshot capture row and the WAL append/recover rows) and
   writes a
   machine-readable report; --json with --full additionally runs the
   nightly-scale rows (E17 at a million users, the E18 grid at 100
   ISPs x 1000 users).  Single-experiment runs also accept the
   checkpoint/resume flags of bin/zmail_sim: --checkpoint-every T,
   --snapshot FILE, --resume FILE, --stop-at T. *)

(* ------------------------------------------------------------------ *)
(* E12: micro-benchmarks of the protocol plumbing                      *)
(* ------------------------------------------------------------------ *)

let kernel_pair () =
  let rng = Sim.Rng.create 42 in
  let compliant = [| true; true |] in
  let bank = Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps:2 ~compliant) in
  let mk i =
    Zmail.Isp.create rng
      { (Zmail.Isp.default_config ~index:i ~n_isps:2 ~n_users:16 ~compliant
           ~bank_public:(Zmail.Bank.public_key bank))
        with
        Zmail.Isp.initial_balance = 1_000_000_000;
        daily_limit = max_int;
      }
  in
  (mk 0, mk 1)

let bench_transfer =
  let isp0, isp1 = kernel_pair () in
  Bechamel.Test.make ~name:"zmail: charge_send + accept_delivery"
    (Bechamel.Staged.stage (fun () ->
         ignore (Zmail.Isp.charge_send isp0 ~sender:3 ~dest_isp:1);
         ignore (Zmail.Isp.accept_delivery isp1 ~from_isp:0 ~rcpt:5)))

let bench_seal =
  let rng = Sim.Rng.create 7 in
  let pk, _ = Toycrypto.Rsa.generate rng in
  let payload = Bytes.of_string "buy 1000 4242424242" in
  Bechamel.Test.make ~name:"crypto: seal (NCR)"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Seal.seal rng pk payload)))

let bench_unseal =
  let rng = Sim.Rng.create 7 in
  let pk, sk = Toycrypto.Rsa.generate rng in
  let sealed = Toycrypto.Seal.seal rng pk (Bytes.of_string "buy 1000 4242424242") in
  Bechamel.Test.make ~name:"crypto: unseal (DCR)"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Seal.unseal sk sealed)))

let bench_sign =
  let rng = Sim.Rng.create 7 in
  let _, sk = Toycrypto.Rsa.generate rng in
  let msg = Bytes.of_string "request 17" in
  Bechamel.Test.make ~name:"crypto: RSA sign"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Rsa.sign sk msg)))

let bench_siphash =
  let buf = Bytes.make 1024 'x' in
  Bechamel.Test.make ~name:"crypto: siphash-2-4 1KiB"
    (Bechamel.Staged.stage (fun () ->
         ignore (Toycrypto.Hash.siphash ~key:(1L, 2L) buf)))

let bench_xtea =
  let rng = Sim.Rng.create 9 in
  let key = Toycrypto.Xtea.random_key rng in
  let buf = Bytes.make 1024 'x' in
  Bechamel.Test.make ~name:"crypto: xtea-cbc encrypt 1KiB"
    (Bechamel.Staged.stage (fun () ->
         ignore (Toycrypto.Xtea.encrypt_cbc key ~iv:42L buf)))

let bench_nonce =
  let g = Toycrypto.Nonce.create (Sim.Rng.create 1) in
  Bechamel.Test.make ~name:"crypto: NNC nonce"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Nonce.next g)))

let bench_smtp_codec =
  let line = "MAIL FROM:<alice@example.com>" in
  Bechamel.Test.make ~name:"smtp: command parse+print"
    (Bechamel.Staged.stage (fun () ->
         match Smtp.Command.of_line line with
         | Ok c -> ignore (Smtp.Command.to_line c)
         | Error _ -> assert false))

let bench_smtp_session =
  let alice = Smtp.Address.of_string_exn "alice@a.com" in
  let bob = Smtp.Address.of_string_exn "bob@b.com" in
  let envelope = Smtp.Envelope.v ~sender:alice ~recipients:[ bob ] in
  let message =
    Smtp.Message.make_exn ~from:alice ~to_:[ bob ] ~subject:"x" ~body:"hello" ()
  in
  Bechamel.Test.make ~name:"smtp: full client/server session"
    (Bechamel.Staged.stage (fun () ->
         let server =
           Smtp.Server.create ~hostname:"mx.b.com"
             ~policy:(Smtp.Server.default_policy ~local_domains:[ "b.com" ])
         in
         ignore
           (Smtp.Client.deliver (Smtp.Client.of_server server) ~hostname:"mx.a.com"
              envelope message)))

let bench_audit_verify =
  let n = 20 in
  let rng = Sim.Rng.create 3 in
  let reported =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then 0 else Sim.Rng.int rng 100))
  in
  (* Antisymmetric input, so the verify scans every pair cleanly. *)
  let () =
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        reported.(j).(i) <- -reported.(i).(j)
      done
    done
  in
  let compliant = Array.make n true in
  Bechamel.Test.make ~name:"zmail: audit verify 20x20"
    (Bechamel.Staged.stage (fun () ->
         ignore (Zmail.Credit.Audit.verify ~reported ~compliant)))

let bench_hashcash_verify =
  let rng = Sim.Rng.create 4 in
  let stamp, _ = Baselines.Hashcash.mint rng ~recipient:"bob@b.com" ~difficulty:12 in
  Bechamel.Test.make ~name:"baseline: hashcash verify"
    (Bechamel.Staged.stage (fun () -> ignore (Baselines.Hashcash.verify stamp)))

let bench_engine =
  Bechamel.Test.make ~name:"sim: schedule+run 100 events"
    (Bechamel.Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         for k = 1 to 100 do
           ignore (Sim.Engine.schedule e ~at:(float_of_int k) (fun () -> ()))
         done;
         Sim.Engine.run e))

let micro_tests =
  [
    bench_transfer;
    bench_seal;
    bench_unseal;
    bench_sign;
    bench_siphash;
    bench_xtea;
    bench_nonce;
    bench_smtp_codec;
    bench_smtp_session;
    bench_audit_verify;
    bench_hashcash_verify;
    bench_engine;
  ]

let run_micro () =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0) () in
  let table =
    Sim.Table.create ~title:"E12: micro-benchmarks (Bechamel OLS estimates)"
      ~columns:[ "operation"; "ns/op"; "r^2" ]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          let estimate =
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> Printf.sprintf "%.1f" e
            | Some [] | None -> "-"
          in
          let r2 =
            match Analyze.OLS.r_square result with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          Sim.Table.add_row table [ name; estimate; r2 ])
        ols)
    micro_tests;
  Sim.Table.print table

(* ------------------------------------------------------------------ *)
(* --json: machine-readable performance report                         *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Engine event throughput over a busy demo world (traffic, a bulk
   sender, periodic audits): wall-clock events/second through the
   whole stack, not a micro-benchmark.  Best of three runs — the
   workload finishes in tens of milliseconds, so a single sample is
   at the mercy of scheduler noise, and the fastest run is the best
   estimate of the code's actual cost. *)
let engine_throughput () =
  let once () =
    let world =
      Zmail.World.create
        {
          (Zmail.World.default_config ~n_isps:3 ~users_per_isp:50) with
          Zmail.World.seed = 12;
          audit_period = Some (12. *. Sim.Engine.hour);
        }
    in
    Zmail.World.attach_user_traffic world ();
    Zmail.World.attach_bulk_sender world ~isp:0 ~user:0 ~per_day:2000. ();
    let (), seconds = wall (fun () -> Zmail.World.run_days world 2.) in
    let events = Sim.Engine.events_fired (Zmail.World.engine world) in
    (events, seconds)
  in
  let best = ref (once ()) in
  for _ = 2 to 3 do
    let events, seconds = once () in
    if seconds < snd !best then best := (events, seconds)
  done;
  !best

(* E17 at bench scale: a 10^4-user world (20 ISPs x 500 users) driven
   through the same Zipf workload, invariant checkers and audits as
   the real experiment, timed end to end.  One run, not best-of — at
   ~10^5 events the sample is long enough that scheduler noise is
   small, and CI compares it with a generous tolerance.  Heap figures
   ride along: [top_heap_words] is the process-lifetime peak (a
   retention leak at scale shows up here as a step change), and the
   allocation rate is the GC-counter delta over the run. *)
let scale_throughput () =
  let stat0 = Gc.quick_stat () in
  let outcome, seconds =
    wall (fun () ->
        Harness.E17_scale.run_scale ~seed:17 ~n_isps:20 ~users_per_isp:500 ())
  in
  let stat1 = Gc.quick_stat () in
  let allocated =
    stat1.Gc.minor_words -. stat0.Gc.minor_words
    +. (stat1.Gc.major_words -. stat0.Gc.major_words)
    -. (stat1.Gc.promoted_words -. stat0.Gc.promoted_words)
  in
  let events = outcome.Harness.E17_scale.events in
  ( outcome.Harness.E17_scale.users,
    outcome.Harness.E17_scale.isps,
    events,
    seconds,
    allocated /. float_of_int events,
    (Gc.stat ()).Gc.top_heap_words )

(* §4.4 cross-check cost at federation scale: one full antisymmetry
   verify over an n x n reported matrix, the exact scan the bank runs
   per audit round.  Measured at n=100 and n=1000 so the committed
   baselines document how the per-round cost grows with the federation
   (the scan is O(n^2) pairs; the interesting number is the absolute
   per-round wall cost at the sizes E18/E17 actually audit). *)
let audit_verify_cost n =
  let rng = Sim.Rng.create 3 in
  let reported =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then 0 else Sim.Rng.int rng 100))
  in
  let () =
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        reported.(j).(i) <- -reported.(i).(j)
      done
    done
  in
  let compliant = Array.make n true in
  let iters = max 5 (2_000_000 / (n * n)) in
  let (), seconds =
    wall (fun () ->
        for _ = 1 to iters do
          ignore (Zmail.Credit.Audit.verify ~reported ~compliant)
        done)
  in
  seconds /. float_of_int iters *. 1e6

(* The same per-round scan on the sparse engine (lib/audit), at the
   constant average degree the representation targets: each ISP's row
   holds ~[degree] populated cells regardless of n, so verify cost
   follows populated cells, not n^2.  Dense rows at n=10^4 would need
   ~800 MB just to exist; the dense column above therefore stops at
   10^3 and the committed baselines document the sparse 10^3 -> 10^4
   cost ratio instead (the acceptance bar for the sparse engine is
   <= 15x, against ~100x for a dense O(n^2) scan).  Returns the
   per-round cost in microseconds and the accumulator's populated-cell
   count. *)
let sparse_audit_verify_cost n =
  let degree = 64 in
  let rng = Sim.Rng.create 5 in
  let rows = Array.init n (fun _ -> Audit.Row.create ~n) in
  for i = 0 to n - 1 do
    for k = 1 to degree / 2 do
      let j = (i + (k * 13)) mod n in
      if j <> i then begin
        let v = 1 + Sim.Rng.int rng 100 in
        Audit.Row.add rows.(i) j v;
        Audit.Row.add rows.(j) i (-v)
      end
    done
  done;
  let pairs = Array.map Audit.Row.pairs rows in
  let present = Array.make n true in
  let round () =
    let acc = Audit.Verify.create ~expected_cells:(n * degree) ~present () in
    Array.iteri
      (fun reporter row ->
        Array.iter
          (fun (peer, v) -> Audit.Verify.claim acc ~reporter ~peer v)
          row)
      pairs;
    ignore (Audit.Verify.violations acc);
    Audit.Verify.populated acc
  in
  let cells = round () in
  (* The sparse row runs after 21 experiment tables have churned the
     heap; compact first and average enough rounds that a single major
     collection cannot dominate the 10^4 measurement (3 rounds at the
     old budget swung the measured cost by 3x run-to-run). *)
  Gc.compact ();
  let iters = max 8 (4_000_000 / (n * degree)) in
  let (), seconds =
    wall (fun () ->
        for _ = 1 to iters do
          ignore (round ())
        done)
  in
  (seconds /. float_of_int iters *. 1e6, cells)

(* Inter-bank clearing cost: one full settlement round driven through
   [Zmail.Clearing] over a lossy mesh (10% drop, 20% delay), timed
   until the carry drains to zero.  Reported at 4 and 16 member banks
   so the baselines document how the settle wall cost and the wire
   message count (retransmissions included) grow with the federation.
   Wall time is simulation-driver cost, not simulated seconds. *)
let clearing_cost n_banks =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create (1900 + n_banks) in
  let fed =
    Zmail.Federation.create rng
      (Zmail.Federation.default_config ~n_banks ~n_isps:(2 * n_banks))
  in
  (* Deterministic drift: a cash ring with growing stakes, so every
     bank ends displaced from the mean and the plan is dense. *)
  for b = 0 to n_banks - 1 do
    Zmail.Federation.apply_transfer fed ~from_bank:b
      ~to_bank:((b + 1) mod n_banks)
      ~amount:(1000 * (b + 1))
  done;
  let mesh =
    Sim.Fault.Mesh.create
      ~default:(Sim.Fault.plan ~drop:0.10 ~delay_prob:0.20 ~delay_max:30. ())
      ~n_nodes:n_banks engine rng
  in
  let clearing =
    Zmail.Clearing.create ~retry_timeout:60. ~engine ~mesh fed
  in
  let (), seconds =
    wall (fun () ->
        ignore (Zmail.Clearing.settle_round clearing);
        Sim.Engine.run engine)
  in
  if Zmail.Clearing.pending_amount clearing <> 0 then
    failwith "bench: clearing carry did not drain";
  (seconds *. 1e3, Zmail.Clearing.messages clearing)

(* The serving path at bench scale: one E20 cell near the service knee
   (27 msg/s offered into 2-session lanes, calm mesh), timed end to
   end — concurrent sessions, admission queues and SLO histograms all
   on the hot path.  Like the e17_scale row: one run, generous CI
   tolerance.  The cell's own paid-class p99 (simulated seconds) rides
   along so baselines document the latency regime the row was timed
   in, but the CI gate compares only events/sec. *)
let latency_throughput () =
  let outcome, seconds =
    wall (fun () ->
        Harness.E20_serving.run_cell ~seed:20 ~label:"bench" ~rate:27.
          ~chaos:false ())
  in
  let paid_p99 =
    match
      List.assoc_opt Serve.Slo.Paid outcome.Harness.E20_serving.classes
    with
    | Some s -> s.Harness.E20_serving.p99
    | None -> nan
  in
  (outcome.Harness.E20_serving.events, seconds, paid_p99)

(* Snapshot write/read bandwidth over a populated world image. *)
let snapshot_io () =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:4 ~users_per_isp:100) with
        Zmail.World.seed = 12;
        audit_period = Some (12. *. Sim.Engine.hour);
      }
  in
  Zmail.World.attach_user_traffic world ();
  Zmail.World.run_days world 2.;
  let snap =
    Persist.Snapshot.v ~experiment:"bench" ~label:"" ~seed:12
      ~time:(Sim.Engine.now (Zmail.World.engine world))
      (Zmail.World.capture world)
  in
  let bytes = String.length (Persist.Snapshot.to_string snap) in
  let path = Filename.temp_file "zmail_bench" ".snap" in
  let iters = 200 in
  let (), write_s =
    wall (fun () ->
        for _ = 1 to iters do
          Persist.Snapshot.write_file ~path snap
        done)
  in
  let (), read_s =
    wall (fun () ->
        for _ = 1 to iters do
          match Persist.Snapshot.read_file ~path with
          | Ok _ -> ()
          | Error e -> failwith ("bench: snapshot read failed: " ^ e)
        done)
  in
  Sys.remove path;
  let mb_s seconds =
    float_of_int (bytes * iters) /. (1024. *. 1024.) /. seconds
  in
  (bytes, mb_s write_s, mb_s read_s)

(* Parworld stepped at 1, 2 and 4 domains (fresh build per count, same
   seed): the events/sec and speedups the multicore tentpole claims.
   The event count is asserted identical across domain counts — the
   bench doubles as a determinism check — and the speedups are honest
   wall-clock ratios: on a single-core runner they sit near 1.0, and
   the committed baseline documents whatever the recording machine
   actually delivered rather than an aspirational figure. *)
let domains_throughput () =
  let time d =
    let w =
      Zmail.Parworld.create
        {
          (Zmail.Parworld.default_config ~groups:4 ~isps_per_group:4
             ~users_per_isp:1500)
          with
          Zmail.Parworld.seed = 22;
        }
    in
    let (), seconds = wall (fun () -> Zmail.Parworld.run w ~domains:d) in
    (Zmail.Parworld.events_fired w, seconds)
  in
  let events, s1 = time 1 in
  let events2, s2 = time 2 in
  let events4, s4 = time 4 in
  if events <> events2 || events <> events4 then
    failwith "bench: engine.domains event counts diverged across domain counts";
  (events, s1, s2, s4)

(* Incremental snapshot capture: a 400-ISP world captured in full vs
   via [capture_incremental] with 1% of the ISPs re-dirtied between
   captures — the steady-state checkpointing regime the dirty tracking
   exists for: a wide world where most ISPs are quiet receivers and
   activity touches a few.  Sixteen funded bulk senders at the low
   indices fill mailboxes across all 400 ISPs; the re-dirtied 1% are
   ordinary receivers at the high indices, so the delta carries small
   sections while the clean 99% (the bulk of the bytes) is skipped.
   Byte sizes of the full snapshot and the 1%-dirty delta ride along
   so the baselines document the I/O saving too. *)
let snapshot_incremental () =
  let n_isps = 400 in
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp:2) with
        Zmail.World.seed = 12;
        audit_period = Some (12. *. Sim.Engine.hour);
        customize_isp =
          (fun _ c ->
            {
              c with
              Zmail.Isp.initial_balance = 1_000_000;
              daily_limit = max_int;
            });
      }
  in
  for k = 0 to 15 do
    Zmail.World.attach_bulk_sender world ~isp:k ~user:0 ~per_day:4000. ()
  done;
  Zmail.World.run_days world 1.;
  let time = Sim.Engine.now (Zmail.World.engine world) in
  let base =
    Persist.Snapshot.v ~experiment:"bench" ~label:"" ~seed:12 ~time
      (Zmail.World.capture world)
  in
  let full_bytes = String.length (Persist.Snapshot.to_string base) in
  (* Like the sparse-audit row: this runs after every experiment table
     has churned the heap, and a major collection landing inside the
     timed loop swamps the millisecond-scale capture being measured —
     compact first and average enough rounds to ride out the rest. *)
  Gc.compact ();
  let iters = 40 in
  let (), full_s =
    wall (fun () ->
        for _ = 1 to iters do
          ignore (Zmail.World.capture world)
        done)
  in
  (* The first incremental capture after a run is a full one (every
     ISP starts dirty); it also resets the dirty set, so the timed
     loop below measures the steady state. *)
  ignore (Zmail.World.capture_incremental world);
  let dirty = max 1 (n_isps / 100) in
  let redirty () =
    for k = 0 to dirty - 1 do
      Zmail.World.mark_isp_dirty world (n_isps - 1 - k)
    done
  in
  Gc.compact ();
  let (), incr_s =
    wall (fun () ->
        for _ = 1 to iters do
          redirty ();
          ignore (Zmail.World.capture_incremental world)
        done)
  in
  redirty ();
  let delta_bytes =
    match
      Persist.Snapshot.delta ~base ~experiment:"bench" ~label:"" ~seed:12
        ~time
        (Zmail.World.capture_incremental world)
    with
    | Ok d -> String.length (Persist.Snapshot.to_string d)
    | Error m -> failwith ("bench: snapshot delta: " ^ m)
  in
  ( n_isps,
    dirty,
    full_s /. float_of_int iters *. 1e3,
    incr_s /. float_of_int iters *. 1e3,
    full_bytes,
    delta_bytes )

(* WAL append throughput at the device level: frame + append with a
   flush every [group] records — the exact write path a disk-backed
   kernel drives per logged billing transition ({!Zmail.Isp}).
   Records/s at group 1 (the policy for money-moving records, which
   always flush) and group 8 (the default lazy batch), so the committed
   baselines document what group commit actually buys on the append
   path. *)
let wal_append_cost group =
  let d = Sim.Disk.create (Sim.Rng.create 31) in
  let payload = String.make 24 'r' in
  let n = 100_000 in
  let (), seconds =
    wall (fun () ->
        for k = 0 to n - 1 do
          Sim.Disk.append d (Persist.Wal.frame ~seq:k payload);
          if k mod group = group - 1 then Sim.Disk.flush d
        done;
        Sim.Disk.flush d)
  in
  float_of_int n /. seconds

(* WAL recovery cost vs log length: a disk-backed kernel is driven
   with paid sends and deliveries until its log holds [n] delta
   records, the log is frozen, and the full recovery — scan, checkpoint
   restore, replay, compaction — is timed by re-seeding the device with
   the frozen log each iteration ([recover_wal] compacts on success, so
   the log must be restored between runs).  Both lengths sit below the
   kernel's compaction threshold (512 deltas) because the log can never
   grow past it: compaction bounds replay, which is exactly what the
   baselines document.  Returns the recovery wall cost in ms and the
   delta-record count actually replayed. *)
let wal_recover_cost n =
  let rng = Sim.Rng.create 33 in
  let compliant = [| true; true |] in
  let bank =
    Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps:2 ~compliant)
  in
  let disk = Sim.Disk.create (Sim.Rng.create 34) in
  let isp =
    Zmail.Isp.create ~disk ~wal_group:1 rng
      { (Zmail.Isp.default_config ~index:0 ~n_isps:2 ~n_users:16 ~compliant
           ~bank_public:(Zmail.Bank.public_key bank))
        with
        Zmail.Isp.initial_balance = 1_000_000_000;
        daily_limit = max_int;
      }
  in
  let k = ref 0 in
  while Zmail.Isp.wal_appended isp < n do
    (if !k mod 2 = 0 then
       ignore (Zmail.Isp.charge_send isp ~sender:(!k mod 16) ~dest_isp:1)
     else ignore (Zmail.Isp.accept_delivery isp ~from_isp:1 ~rcpt:(!k mod 16)));
    incr k
  done;
  let log = Sim.Disk.contents disk in
  let iters = max 20 (20_000 / n) in
  let (), seconds =
    wall (fun () ->
        for _ = 1 to iters do
          Sim.Disk.reset_to disk log;
          match Zmail.Isp.recover_wal isp with
          | Ok () -> ()
          | Error e -> failwith ("bench: wal_recover: " ^ e)
        done)
  in
  (seconds /. float_of_int iters *. 1e3, Zmail.Isp.wal_replayed isp)

(* ISO-8601 UTC stamp embedded in the report, so tooling can order
   baselines by when they were recorded instead of by filename. *)
let iso8601_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let run_json ~path ~obs ~full =
  (* Experiment tables still go to stdout; the timings go to [path]. *)
  let experiments =
    List.map
      (fun e ->
        let id = e.Harness.Experiments.id in
        let (), seconds =
          wall (fun () ->
              match Harness.Experiments.run_one ~obs id with
              | Ok () -> ()
              | Error m -> failwith ("bench: " ^ id ^ ": " ^ m))
        in
        (id, seconds))
      Harness.Experiments.all
  in
  let events, engine_s = engine_throughput () in
  let scale_users, scale_isps, scale_events, scale_s, scale_alloc, peak_words =
    scale_throughput ()
  in
  let latency_events, latency_s, latency_paid_p99 = latency_throughput () in
  let snap_bytes, write_mb_s, read_mb_s = snapshot_io () in
  let dom_events, dom_s1, dom_s2, dom_s4 = domains_throughput () in
  let inc_isps, inc_dirty, inc_full_ms, inc_incr_ms, inc_full_b, inc_delta_b =
    snapshot_incremental ()
  in
  let verify_100_us = audit_verify_cost 100 in
  let verify_1000_us = audit_verify_cost 1000 in
  let sparse_1000_us, sparse_1000_cells = sparse_audit_verify_cost 1000 in
  let sparse_10000_us, sparse_10000_cells = sparse_audit_verify_cost 10_000 in
  let clear4_ms, clear4_msgs = clearing_cost 4 in
  let clear16_ms, clear16_msgs = clearing_cost 16 in
  let wal_g1_rps = wal_append_cost 1 in
  let wal_g8_rps = wal_append_cost 8 in
  let wal_rec_short_ms, wal_rec_short_n = wal_recover_cost 64 in
  let wal_rec_long_ms, wal_rec_long_n = wal_recover_cost 448 in
  (* Nightly-only long rows: the E17 million-user world and the E18
     adversary grid at 100 ISPs x 1000 users.  Minutes of wall-clock,
     so they only run under --full. *)
  let full_rows =
    if not full then None
    else begin
      let o17, e17_s =
        wall (fun () ->
            Harness.E17_scale.run_scale ~seed:17 ~n_isps:1000
              ~users_per_isp:1000 ())
      in
      let (), e18_s =
        wall (fun () -> ignore (Harness.E18_adversary.run ~seed:18 ~full:true ()))
      in
      Some (o17.Harness.E17_scale.events, e17_s, e18_s)
    end
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"schema\": 4,\n  \"generated_at\": \"%s\",\n\
      \  \"experiments\": [\n"
       (iso8601_now ()));
  List.iteri
    (fun k (id, seconds) ->
      Buffer.add_string b
        (Printf.sprintf "    { \"id\": \"%s\", \"wall_s\": %.6f }%s\n"
           (json_escape id) seconds
           (if k = List.length experiments - 1 then "" else ",")))
    experiments;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"engine\": { \"events\": %d, \"wall_s\": %.6f, \
        \"events_per_sec\": %.0f },\n"
       events engine_s
       (float_of_int events /. engine_s));
  Buffer.add_string b
    (Printf.sprintf
       "  \"e17_scale\": { \"users\": %d, \"isps\": %d, \"events\": %d, \
        \"wall_s\": %.6f, \"events_per_sec\": %.0f, \
        \"alloc_words_per_event\": %.1f, \"peak_heap_words\": %d },\n"
       scale_users scale_isps scale_events scale_s
       (float_of_int scale_events /. scale_s)
       scale_alloc peak_words);
  Buffer.add_string b
    (Printf.sprintf
       "  \"latency\": { \"events\": %d, \"wall_s\": %.6f, \
        \"events_per_sec\": %.0f, \"paid_p99_s\": %.3f },\n"
       latency_events latency_s
       (float_of_int latency_events /. latency_s)
       latency_paid_p99);
  Buffer.add_string b
    (Printf.sprintf
       "  \"audit_verify\": { \"n100_us_per_round\": %.2f, \
        \"n1000_us_per_round\": %.2f, \"sparse\": { \
        \"n1000_us_per_round\": %.2f, \"n10000_us_per_round\": %.2f, \
        \"n1000_cells\": %d, \"n10000_cells\": %d, \
        \"ratio_1000_to_10000\": %.2f } },\n"
       verify_100_us verify_1000_us sparse_1000_us sparse_10000_us
       sparse_1000_cells sparse_10000_cells
       (sparse_10000_us /. sparse_1000_us));
  Buffer.add_string b
    (Printf.sprintf
       "  \"clearing\": { \"banks4\": { \"settle_ms\": %.3f, \"messages\": \
        %d }, \"banks16\": { \"settle_ms\": %.3f, \"messages\": %d } },\n"
       clear4_ms clear4_msgs clear16_ms clear16_msgs);
  Buffer.add_string b
    (Printf.sprintf
       "  \"wal\": { \"append_g1_records_per_sec\": %.0f, \
        \"append_g8_records_per_sec\": %.0f, \"recover_short\": { \
        \"records\": %d, \"ms\": %.3f }, \"recover_long\": { \
        \"records\": %d, \"ms\": %.3f } },\n"
       wal_g1_rps wal_g8_rps wal_rec_short_n wal_rec_short_ms wal_rec_long_n
       wal_rec_long_ms);
  Buffer.add_string b
    (Printf.sprintf
       "  \"engine_domains\": { \"groups\": 4, \"events\": %d, \
        \"wall_s_1\": %.6f, \"wall_s_2\": %.6f, \"wall_s_4\": %.6f, \
        \"events_per_sec\": %.0f, \"speedup_2\": %.2f, \"speedup_4\": \
        %.2f, \"domains_available\": %b },\n"
       dom_events dom_s1 dom_s2 dom_s4
       (float_of_int dom_events /. dom_s1)
       (dom_s1 /. dom_s2) (dom_s1 /. dom_s4) Sim.Domainpool.available);
  Buffer.add_string b
    (Printf.sprintf
       "  \"snapshot_incremental\": { \"isps\": %d, \"dirty_isps\": %d, \
        \"full_ms\": %.3f, \"incr_ms\": %.3f, \"speedup\": %.2f, \
        \"full_bytes\": %d, \"delta_bytes\": %d },\n"
       inc_isps inc_dirty inc_full_ms inc_incr_ms
       (inc_full_ms /. inc_incr_ms)
       inc_full_b inc_delta_b);
  Buffer.add_string b
    (Printf.sprintf
       "  \"snapshot\": { \"bytes\": %d, \"write_mb_per_s\": %.2f, \
        \"read_mb_per_s\": %.2f }%s\n"
       snap_bytes write_mb_s read_mb_s
       (if full_rows = None then "" else ","));
  (match full_rows with
  | None -> ()
  | Some (e17_events, e17_s, e18_s) ->
      Buffer.add_string b
        (Printf.sprintf
           "  \"full\": { \"e17_million\": { \"events\": %d, \"wall_s\": \
            %.2f, \"events_per_sec\": %.0f }, \"e18_full_grid\": { \
            \"wall_s\": %.2f } }\n"
           e17_events e17_s
           (float_of_int e17_events /. e17_s)
           e18_s));
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.eprintf "bench: wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let list_experiments () =
  List.iter
    (fun e ->
      Printf.printf "%-4s %s\n" e.Harness.Experiments.id e.Harness.Experiments.title)
    Harness.Experiments.all;
  print_endline "micro (E12: protocol micro-benchmarks)"

let usage =
  "usage: main.exe [e1..e23|micro|list] [--metrics] [--trace FILE] \
   [--trace-format jsonl|chrome] [--json FILE] [--full] \
   [--checkpoint-every T] [--snapshot FILE] [--resume FILE] [--stop-at T]"

let () =
  let trace = ref None in
  let trace_format = ref `Jsonl in
  let metrics = ref false in
  let json = ref None in
  let full = ref false in
  let checkpoint_every = ref None in
  let snapshot = ref None in
  let resume = ref None in
  let stop_at = ref None in
  let positional = ref [] in
  let float_arg name v =
    match float_of_string_opt v with
    | Some f -> f
    | None ->
        Printf.eprintf "%s: not a number: %s\n%s\n" name v usage;
        exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--trace" :: path :: rest ->
        trace := Some path;
        parse rest
    | "--trace-format" :: fmt :: rest ->
        (match fmt with
        | "jsonl" -> trace_format := `Jsonl
        | "chrome" -> trace_format := `Chrome
        | _ ->
            prerr_endline usage;
            exit 1);
        parse rest
    | "--metrics" :: rest ->
        metrics := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--checkpoint-every" :: v :: rest ->
        checkpoint_every := Some (float_arg "--checkpoint-every" v);
        parse rest
    | "--snapshot" :: path :: rest ->
        snapshot := Some path;
        parse rest
    | "--resume" :: path :: rest ->
        resume := Some path;
        parse rest
    | "--stop-at" :: v :: rest ->
        stop_at := Some (float_arg "--stop-at" v);
        parse rest
    | arg :: rest ->
        positional := arg :: !positional;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let tracer =
    match !trace with
    | Some _ -> Some (Obs.Trace.create ~capacity:262_144 ())
    | None -> None
  in
  let obs = { Obs.Run.tracer; metrics = !metrics } in
  let export () =
    match (!trace, tracer) with
    | Some path, Some tr ->
        Obs.Export.write_file ~path ~format:!trace_format (Obs.Trace.events tr)
    | _ -> ()
  in
  let persist_requested =
    !checkpoint_every <> None || !snapshot <> None || !resume <> None
    || !stop_at <> None
  in
  match List.rev !positional with
  | [] when persist_requested ->
      prerr_endline
        "checkpoint/resume flags need a single experiment id";
      exit 1
  | [] -> (
      match !json with
      | Some path -> run_json ~path ~obs ~full:!full
      | None ->
          Harness.Experiments.run_all ~obs ();
          run_micro ();
          export ())
  | [ "micro" ] -> run_micro ()
  | [ "list" ] -> list_experiments ()
  | [ id ] -> (
      let outcome =
        try
          let persist =
            if persist_requested then
              Harness.Checkpoint.create ?checkpoint_every:!checkpoint_every
                ?snapshot:!snapshot ?resume:!resume ?stop_at:!stop_at
                ~experiment:(String.lowercase_ascii id) ()
            else Harness.Checkpoint.none
          in
          match Harness.Experiments.run_one ~obs ~persist id with
          | Ok () -> (
              match Harness.Checkpoint.finished persist with
              | Ok () -> `Done
              | Error m -> `Err ("checkpoint: " ^ m))
          | Error m -> `Err m
        with
        | Harness.Checkpoint.Stopped { time; file } -> `Stopped (time, file)
        | Invalid_argument m -> `Err m
      in
      match outcome with
      | `Done -> export ()
      | `Stopped (time, file) ->
          Printf.eprintf "checkpoint: run stopped at t=%.0f%s\n%!" time
            (match file with
            | Some f -> Printf.sprintf "; resume with --resume %s" f
            | None -> "")
      | `Err message ->
          prerr_endline message;
          exit 1)
  | _ ->
      prerr_endline usage;
      exit 1
