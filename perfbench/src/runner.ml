(* Rounds, timing and the report.  A run is: one warm-up round, then
   untraced rounds until their timed regions add up to the budget; with
   tracing, half the budget goes to untraced rounds (the overhead
   baseline and the GC counts) and half to traced rounds.  Every round
   re-builds its inputs from the same seed, so every round must report
   the same simulated statistics. *)

let default_seed = 1
let held_out_seed = 2027

type round = {
  setup_s : float;
  timed_s : float;
  alloc_words : float;  (* minor + major - promoted over the timed region *)
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  outcome : Workloads.outcome;
  probe : Probe.t option;
  setup_create_ns : int;  (* traced World.create time spent in set-up *)
  top_heap_words : int;  (* process peak after this round *)
  shard_busy : float array;
}

let round (w : Workloads.t) ~seed ~size ~inject ~traced =
  let probe = if traced then Some (Probe.create ()) else None in
  let ctx = { Workloads.seed; size; inject; probe } in
  let t0 = Probe.now_ns () in
  let job = w.Workloads.prepare ctx in
  let t1 = Probe.now_ns () in
  Gc.compact ();
  let setup_create_ns =
    match probe with None -> 0 | Some p -> (Probe.span p Probe.Create).Probe.self
  in
  let g0 = Gc.quick_stat () in
  let t2 = Probe.now_ns () in
  job.Workloads.run ();
  let t3 = Probe.now_ns () in
  let g1 = Gc.quick_stat () in
  let outcome = job.Workloads.check () in
  let d f = f g1 -. f g0 in
  {
    setup_s = Probe.secs (t1 - t0);
    timed_s = Probe.secs (t3 - t2);
    alloc_words =
      d (fun g -> g.Gc.minor_words) +. d (fun g -> g.Gc.major_words)
      -. d (fun g -> g.Gc.promoted_words);
    promoted_words = d (fun g -> g.Gc.promoted_words);
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    outcome;
    probe;
    setup_create_ns;
    top_heap_words = g1.Gc.top_heap_words;
    shard_busy = job.Workloads.shard_busy ();
  }

(* Rounds until their timed regions reach [budget] seconds, at least
   [min_rounds] of them. *)
let rounds w ~seed ~size ~inject ~traced ~budget ~min_rounds =
  let rec go acc spent n =
    if spent >= budget && n >= min_rounds then List.rev acc
    else
      let r = round w ~seed ~size ~inject ~traced in
      go (r :: acc) (spent +. r.timed_s) (n + 1)
  in
  go [] 0. 0

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host times are reported from the fastest round.  On shared cores,
   interference comes in phases of a second to over a minute that slow
   every instruction inside them by up to 40%; the fastest of many
   short rounds tracks the uncontended speed, where a median would
   follow the phases.  Set-up is taken the same way. *)
let fastest = function [] -> 0. | x :: xs -> List.fold_left Float.min x xs

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  stats : (string * int) list;
  digest : string;
  metrics : (string * float * string) list;  (* name, value, unit *)
  untraced_rounds : int;
  traced_rounds : int;
  round_times : (float * float) list;  (* set-up and timed seconds per round *)
}

let stat stats k = float_of_int (Option.value ~default:0 (List.assoc_opt k stats))
let ratio a b = if b = 0. then 0. else a /. b

(* The heap peak is read after a fixed amount of work (the warm-up and
   [min_rounds] rounds), so it does not depend on how many rounds fit in
   the run. *)
let min_rounds = 3

let end_to_end rs =
  let top = (List.nth rs (min_rounds - 1)).top_heap_words in
  let ops = float_of_int (List.hd rs).outcome.Workloads.ops in
  [
    ("setup_s", fastest (List.map (fun r -> r.setup_s) rs), "s");
    ("ops_per_s", ratio ops (fastest (List.map (fun r -> r.timed_s) rs)), "1/s");
    ( "alloc_words_per_op",
      median (List.map (fun r -> ratio r.alloc_words (float_of_int r.outcome.Workloads.ops)) rs),
      "words" );
    ( "peak_heap_mb",
      float_of_int (top * (Sys.word_size / 8)) /. 1048576.,
      "MiB" );
  ]

let per_layer ~stats ~ops ~attempted ~failed untraced traced =
  let n = float_of_int (max 1 (List.length traced)) in
  let probe = Probe.create () in
  List.iter (fun r -> Option.iter (Probe.merge_into probe) r.probe) traced;
  let sp l = Probe.span probe l in
  let self_s l = Probe.secs (sp l).Probe.self /. n in
  let q l p = Probe.Hist.quantile (sp l).Probe.hist p in
  let count l = float_of_int (sp l).Probe.count /. n in
  let wall = List.fold_left (fun a r -> a +. r.timed_s) 0. traced in
  let ops = float_of_int ops in
  let st = stat stats in
  let untraced_timed = fastest (List.map (fun r -> r.timed_s) untraced) in
  let traced_timed = fastest (List.map (fun r -> r.timed_s) traced) in
  let shard_busy =
    List.fold_left
      (fun acc r ->
        if acc = [||] then Array.copy r.shard_busy
        else Array.mapi (fun i b -> b +. r.shard_busy.(i)) acc)
      [||] traced
  in
  let busy_total = Array.fold_left ( +. ) 0. shard_busy in
  (* Time covered by a classified callback or a bench-timed call inside
     the timed region.  The probe's own time is taken out of the wall,
     and the time outside shard steps on a sharded run (merges and
     coordination) is accounted to parworld.idle_frac, not left
     unattributed. *)
  let covered =
    List.fold_left
      (fun a l -> if l = Probe.Other then a else a +. Probe.secs (sp l).Probe.self)
      0. Probe.all_layers
    -. List.fold_left (fun a r -> a +. Probe.secs r.setup_create_ns) 0. traced
  in
  let overhead = Probe.secs probe.Probe.overhead in
  let idle = if shard_busy = [||] then 0. else Float.max 0. (wall -. overhead -. busy_total) in
  let gc f = median (List.map f untraced) in
  let recovers = st "crash.points" in
  [
    ("engine.events_per_op", ratio (st "events") ops, "count");
    ("engine.events_per_s", ratio (st "events") untraced_timed, "1/s");
    ("engine.busy_frac", ratio (Probe.secs probe.Probe.busy) wall, "frac");
    ("engine.callback_p50_us", Probe.Hist.quantile probe.Probe.callbacks 0.5 /. 1e3, "us");
    ("engine.callback_p99_us", Probe.Hist.quantile probe.Probe.callbacks 0.99 /. 1e3, "us");
    ("engine.live_max", float_of_int probe.Probe.live_max, "count");
    ("world.send.self_s", self_s Probe.Send, "s");
    ("world.send.p50_us", q Probe.Send 0.5 /. 1e3, "us");
    ("world.send.p99_us", q Probe.Send 0.99 /. 1e3, "us");
    ( "world.send.submitted_frac",
      ratio (st "sends.paid" +. st "sends.free") (st "sends.attempted"),
      "frac" );
    ("smtp.deliver.events", count Probe.Deliver, "count");
    ("smtp.deliver.self_s", self_s Probe.Deliver, "s");
    ("smtp.deliver.p99_us", q Probe.Deliver 0.99 /. 1e3, "us");
    ("audit.rounds", count Probe.Audit_close, "count");
    ("audit.close.self_s", self_s Probe.Audit_close, "s");
    ("audit.close.max_ms", float_of_int (sp Probe.Audit_close).Probe.hist.Probe.Hist.max /. 1e6, "ms");
    ("audit.freeze.self_s", self_s Probe.Audit_freeze, "s");
    ("bank.exchanges", st "bank.exchanges", "count");
    ("bank.self_s", self_s Probe.Bank, "s");
    ("bank.retransmits", st "bank.retransmits", "count");
    ("obs.invariant.checks_per_op", ratio (st "obs.checks") ops, "count");
    ("serve.admitted", st "serve.admitted", "count");
    ("serve.refused_frac", ratio (st "sends.backpressured") (st "sends.attempted"), "frac");
    ("serve.sessions", st "serve.sessions", "count");
    ("serve.session.self_s", self_s Probe.Serve_session, "s");
    ("smtp.retry.parked", st "smtp.retry.parked", "count");
    ("smtp.bounced", st "smtp.bounced", "count");
    ("fault.mesh.lost", st "fault.mesh.lost", "count");
    ("fault.mesh.delayed", st "fault.mesh.delayed", "count");
    ("wal.appends_per_op", ratio (st "wal.appends") ops, "count");
    ("disk.flushes_per_op", ratio (st "disk.flushes") ops, "count");
    ("disk.bytes_per_op", ratio (st "disk.bytes") ops, "bytes");
    ("wal.recover.calls", count Probe.Recover, "count");
    ("wal.recover.self_s", self_s Probe.Recover, "s");
    ("wal.recover.p99_ms", q Probe.Recover 0.99 /. 1e6, "ms");
    ("wal.replayed_per_recover", ratio (st "wal.replayed") recovers, "count");
    ("world.create.self_s", self_s Probe.Create, "s");
    ("world.create.p50_ms", q Probe.Create 0.5 /. 1e6, "ms");
    ("parworld.barriers", st "parworld.barriers", "count");
    ("parworld.cross_injected", st "parworld.cross_injected", "count");
    ("parworld.shard_busy_s", busy_total /. n, "s");
    ( "parworld.idle_frac",
      (if shard_busy = [||] then 0. else 1. -. ratio busy_total wall),
      "frac" );
    ( "parworld.imbalance",
      (if shard_busy = [||] then 0.
       else
         ratio
           (Array.fold_left Float.max 0. shard_busy)
           (busy_total /. float_of_int (Array.length shard_busy))),
      "ratio" );
    ( "gc.minor_collections_per_kop",
      gc (fun r -> ratio (float_of_int r.minor_gcs *. 1000.) (float_of_int r.outcome.Workloads.ops)),
      "count" );
    ("gc.major_collections", gc (fun r -> float_of_int r.major_gcs), "count");
    ( "gc.promoted_words_per_op",
      gc (fun r -> ratio r.promoted_words (float_of_int r.outcome.Workloads.ops)),
      "words" );
    ("trace.overhead_frac", ratio traced_timed untraced_timed -. 1., "frac");
    ("workload.generator.self_s", self_s Probe.Generator, "s");
    ("workload.check.self_s", self_s Probe.Check, "s");
    ( "unattributed_frac",
      ratio (wall -. overhead -. idle -. covered) (wall -. overhead),
      "frac" );
    ("ops_failed_frac", ratio (float_of_int failed) (float_of_int attempted), "frac");
  ]

(* Every round at one seed must reproduce the first round's simulated
   statistics; a round that does not has all its ops counted failed. *)
let measure ?(inject = Workloads.no_inject) ~size (w : Workloads.t) ~seed ~seconds ~trace =
  ignore (round w ~seed ~size ~inject:Workloads.no_inject ~traced:false);
  let budget = if trace then seconds /. 2. else seconds in
  let untraced = rounds w ~seed ~size ~inject ~traced:false ~budget ~min_rounds in
  let traced =
    if trace then rounds w ~seed ~size ~inject ~traced:true ~budget ~min_rounds:2 else []
  in
  let all = untraced @ traced in
  let first = (List.hd all).outcome in
  let same (o : Workloads.outcome) =
    o.Workloads.stats = first.Workloads.stats && o.Workloads.digest = first.Workloads.digest
  in
  List.iteri
    (fun i r ->
      if not (same r.outcome) then
        Printf.eprintf "round %d differs from round 0: %s\n%!" i
          (String.concat " "
             (List.filter_map
                (fun (k, v) ->
                  let v0 = Option.value ~default:(-1) (List.assoc_opt k first.Workloads.stats) in
                  if v = v0 then None else Some (Printf.sprintf "%s=%d(vs %d)" k v v0))
                r.outcome.Workloads.stats
             @ if r.outcome.Workloads.digest <> first.Workloads.digest then [ "digest" ] else [])))
    all;
  let attempted = List.fold_left (fun a r -> a + r.outcome.Workloads.ops) 0 all in
  let failed =
    List.fold_left
      (fun a r ->
        a + if same r.outcome then r.outcome.Workloads.failed else r.outcome.Workloads.ops)
      0 all
  in
  let metrics =
    if trace then
      per_layer ~stats:first.Workloads.stats
        ~ops:first.Workloads.ops ~attempted ~failed untraced traced
    else end_to_end untraced
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  {
    workload = w.Workloads.name;
    seed;
    correct = failed = 0 && finite;
    attempted;
    failed;
    stats = first.Workloads.stats;
    digest = Digest.to_hex first.Workloads.digest;
    metrics;
    round_times = List.map (fun r -> (r.setup_s, r.timed_s)) all;
    untraced_rounds = List.length untraced;
    traced_rounds = List.length traced;
  }

let json r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
        (if Float.is_finite v then v else 0.)
        unit)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* The simulated statistics a perf-only change must leave unchanged,
   printed for comparison against the parent commit. *)
let summary r =
  String.concat "\n"
    [
      Printf.sprintf "workload %s seed %d rounds %d untraced + %d traced" r.workload r.seed
        r.untraced_rounds r.traced_rounds;
      "stats "
      ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.stats);
      "digest " ^ r.digest;
      "rounds (setup_s/timed_s) "
      ^ String.concat " "
          (List.map (fun (s, t) -> Printf.sprintf "%.4g/%.4g" s t) r.round_times);
      Printf.sprintf "ops attempted %d failed %d (ops_failed_frac %g)" r.attempted r.failed
        (ratio (float_of_int r.failed) (float_of_int r.attempted));
    ]
