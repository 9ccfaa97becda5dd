(* Tests for the observability subsystem: trace ring semantics, the
   JSONL round-trip, trace determinism, the metric registry, and the
   online invariant checkers. *)

(* ------------------------------------------------------------------ *)
(* Trace: ring buffer, sinks, spans                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_ring () =
  let tr = Obs.Trace.create ~capacity:2 () in
  Alcotest.(check bool) "active with capacity" true (Obs.Trace.active tr);
  for k = 1 to 3 do
    Obs.Trace.emit tr ~comp:"t" (string_of_int k)
  done;
  let names = List.map (fun ev -> ev.Obs.Trace.name) (Obs.Trace.events tr) in
  Alcotest.(check (list string)) "ring keeps the newest" [ "2"; "3" ] names;
  Alcotest.(check int) "emitted counts everything" 3 (Obs.Trace.emitted tr);
  Alcotest.(check int) "dropped counts evictions" 1 (Obs.Trace.dropped tr);
  Alcotest.(check int) "seq is emission order" 2
    (match List.rev (Obs.Trace.events tr) with
    | last :: _ -> last.Obs.Trace.seq
    | [] -> -1);
  Obs.Trace.clear tr;
  Alcotest.(check (list string)) "clear empties the ring" []
    (List.map (fun ev -> ev.Obs.Trace.name) (Obs.Trace.events tr))

let test_trace_inert () =
  Alcotest.(check bool) "none is inactive" false (Obs.Trace.active Obs.Trace.none);
  Obs.Trace.emit Obs.Trace.none ~comp:"t" "ignored";
  Alcotest.(check int) "none records nothing" 0 (Obs.Trace.emitted Obs.Trace.none);
  let zero = Obs.Trace.create ~capacity:0 () in
  Alcotest.(check bool) "capacity 0, no sinks: inactive" false (Obs.Trace.active zero);
  Obs.Trace.emit zero ~comp:"t" "ignored";
  Alcotest.(check int) "inactive emit is free" 0 (Obs.Trace.emitted zero);
  (* A subscriber turns the capacity-0 tracer on: events flow to the
     sink even though the ring still records nothing. *)
  let seen = ref 0 in
  Obs.Trace.subscribe zero (fun _ -> incr seen);
  Alcotest.(check bool) "sink activates it" true (Obs.Trace.active zero);
  Obs.Trace.emit zero ~comp:"t" "observed";
  Alcotest.(check int) "sink sees the event" 1 !seen;
  Alcotest.(check (list string)) "ring still empty" []
    (List.map (fun ev -> ev.Obs.Trace.name) (Obs.Trace.events zero))

let test_trace_unsubscribe () =
  let tr = Obs.Trace.create ~capacity:4 () in
  let seen = ref 0 in
  let sink _ = incr seen in
  Obs.Trace.subscribe tr sink;
  Obs.Trace.emit tr ~comp:"t" "a";
  Obs.Trace.unsubscribe tr sink;
  Obs.Trace.emit tr ~comp:"t" "b";
  Alcotest.(check int) "detached sink sees nothing more" 1 !seen

let test_trace_spans () =
  let tr = Obs.Trace.create ~capacity:8 () in
  let s1 = Obs.Trace.span_begin tr ~comp:"t" "outer" in
  let s2 = Obs.Trace.span_begin tr ~comp:"t" "inner" in
  Alcotest.(check bool) "span ids distinct and nonzero" true
    (s1 <> s2 && s1 <> 0 && s2 <> 0);
  Obs.Trace.span_end tr ~span:s2 ~comp:"t" "inner";
  Obs.Trace.span_end tr ~span:s1 ~comp:"t" "outer";
  (match Obs.Trace.events tr with
  | [ b1; b2; e2; e1 ] ->
      Alcotest.(check int) "begin/end share ids" b1.Obs.Trace.span e1.Obs.Trace.span;
      Alcotest.(check int) "inner pair matches" b2.Obs.Trace.span e2.Obs.Trace.span;
      Alcotest.(check bool) "phases" true
        (b1.Obs.Trace.phase = Obs.Trace.Begin && e2.Obs.Trace.phase = Obs.Trace.End)
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs));
  Alcotest.(check int) "inactive span id is 0" 0
    (Obs.Trace.span_begin Obs.Trace.none ~comp:"t" "dead")

(* ------------------------------------------------------------------ *)
(* Export: JSONL round-trip and Chrome shape                           *)
(* ------------------------------------------------------------------ *)

let finite_float =
  QCheck.Gen.map (fun f -> if Float.is_finite f then f else 0.) QCheck.Gen.float

(* Strings biased toward JSON-hostile characters: quotes, backslashes,
   control bytes, high bytes. *)
let tricky_string =
  let open QCheck.Gen in
  let tricky_char =
    frequency
      [
        (2, char);
        (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x1f'; '\xff'; '{' ]);
      ]
  in
  string_size ~gen:tricky_char (int_bound 24)

let value_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> Obs.Trace.Int i) int;
      map (fun f -> Obs.Trace.Float f) finite_float;
      map (fun b -> Obs.Trace.Bool b) bool;
      map (fun s -> Obs.Trace.Str s) tricky_string;
    ]

let event_gen =
  let open QCheck.Gen in
  let phase = oneofl [ Obs.Trace.Instant; Obs.Trace.Begin; Obs.Trace.End ] in
  let field = pair tricky_string value_gen in
  map2
    (fun (seq, time, comp, actor, phase) (name, span, fields) ->
      { Obs.Trace.seq; time; comp; actor; phase; name; span; fields })
    (tup5 small_nat finite_float tricky_string (int_range (-1) 40) phase)
    (triple tricky_string small_nat (list_size (int_bound 5) field))

let event_print ev = Obs.Export.event_to_json ev

let test_jsonl_roundtrip =
  QCheck.Test.make ~name:"jsonl round-trip: parse (print ev) = ev" ~count:500
    (QCheck.make ~print:event_print event_gen)
    (fun ev ->
      match Obs.Export.event_of_json (Obs.Export.event_to_json ev) with
      | Ok ev' -> ev' = ev
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg)

let test_jsonl_document_roundtrip =
  QCheck.Test.make ~name:"jsonl document round-trip" ~count:100
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map event_print evs))
       QCheck.Gen.(list_size (int_bound 10) event_gen))
    (fun evs ->
      match Obs.Export.of_jsonl (Obs.Export.to_jsonl evs) with
      | Ok evs' -> evs' = evs
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg)

let test_jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      match Obs.Export.event_of_json line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [ ""; "{"; "not json"; "{\"seq\":}"; "{\"seq\":1}"; "[1,2]" ]

let test_chrome_shape () =
  let tr = Obs.Trace.create ~capacity:8 () in
  Obs.Trace.set_clock tr (fun () -> 1.5);
  Obs.Trace.emit tr ~actor:2 ~comp:"isp" "charge";
  let span = Obs.Trace.span_begin tr ~actor:0 ~comp:"isp" "buy" in
  Obs.Trace.span_end tr ~span ~actor:0 ~comp:"isp" "buy";
  let doc = Obs.Export.to_chrome (Obs.Trace.events tr) in
  let has needle =
    let n = String.length needle and l = String.length doc in
    let rec go i = i + n <= l && (String.sub doc i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "wrapped in traceEvents" true (has "{\"traceEvents\":[");
  Alcotest.(check bool) "sim seconds become microseconds" true (has "\"ts\":1500000.0");
  Alcotest.(check bool) "instant phase" true (has "\"ph\":\"i\"");
  Alcotest.(check bool) "async begin phase" true (has "\"ph\":\"b\"");
  Alcotest.(check bool) "actor 2 on tid 3" true (has "\"tid\":3");
  Alcotest.(check bool) "thread names present" true (has "thread_name")

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a.count" in
  Sim.Stats.Counter.incr ~by:3 c;
  Alcotest.(check bool) "get-or-create returns same instrument" true
    (c == Obs.Metrics.counter m "a.count");
  Obs.Metrics.gauge m "b.gauge" (fun () -> 7.);
  Sim.Stats.Summary.add (Obs.Metrics.summary m "c.delay") 1.5;
  Alcotest.(check (list string)) "names sorted" [ "a.count"; "b.gauge"; "c.delay" ]
    (Obs.Metrics.names m);
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Obs.Metrics.summary m "a.count");
       false
     with Invalid_argument _ -> true);
  let rows = Sim.Table.rows (Obs.Metrics.to_table m) in
  Alcotest.(check int) "one row per metric" 3 (List.length rows);
  match rows with
  | [ counter_row; _; _ ] ->
      Alcotest.(check string) "counter value rendered" "3" (List.nth counter_row 2)
  | _ -> Alcotest.fail "unexpected table shape"

(* ------------------------------------------------------------------ *)
(* Trace determinism and the online checkers on a real world           *)
(* ------------------------------------------------------------------ *)

let world_config tracer seed =
  {
    (Zmail.World.default_config ~n_isps:2 ~users_per_isp:8) with
    Zmail.World.seed;
    audit_period = Some (6. *. Sim.Engine.hour);
    tracer = Some tracer;
  }

let run_traced_world seed =
  let tracer = Obs.Trace.create ~capacity:65_536 () in
  let world = Zmail.World.create (world_config tracer seed) in
  let checkers = Zmail.World.attach_invariants world in
  Zmail.World.attach_user_traffic world ();
  Zmail.World.attach_bulk_sender world ~isp:0 ~user:0 ~per_day:200. ();
  Zmail.World.run_days world 1.;
  Zmail.World.check_invariants world;
  List.iter Obs.Invariant.detach checkers;
  (world, Obs.Export.to_jsonl (Obs.Trace.events tracer))

let test_trace_deterministic () =
  let _, a = run_traced_world 42 in
  let _, b = run_traced_world 42 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 10_000);
  Alcotest.(check bool) "same seed: byte-identical JSONL" true (String.equal a b);
  let _, c = run_traced_world 43 in
  Alcotest.(check bool) "different seed: different trace" false (String.equal a c)

let test_checkers_pass_on_honest_world () =
  let tracer = Obs.Trace.create ~capacity:4096 () in
  let world = Zmail.World.create (world_config tracer 7) in
  let checkers = Zmail.World.attach_invariants world in
  (* A finite workload (user-traffic loops reschedule forever and would
     never drain): 40 cross-ISP sends spread over the first day. *)
  let engine = Zmail.World.engine world in
  for k = 0 to 39 do
    ignore
      (Sim.Engine.schedule_after engine
         ~delay:(float_of_int (k + 1) *. 600.)
         (fun () ->
           ignore
             (Zmail.World.send_email world
                ~from:(k mod 2, k mod 8)
                ~to_:((k + 1) mod 2, (k + 3) mod 8)
                ())))
  done;
  Zmail.World.run_days world 1.;
  Zmail.World.run_until_quiet world;
  Zmail.World.check_invariants ~quiescent:true world;
  List.iter
    (fun c ->
      if Obs.Invariant.name c <> "exactly-once" then
        Alcotest.(check bool)
          (Obs.Invariant.name c ^ " evaluated")
          true
          (Obs.Invariant.checks c > 0);
      Obs.Invariant.detach c)
    checkers

let test_checker_catches_double_credit () =
  let tracer = Obs.Trace.create ~capacity:64 () in
  let world = Zmail.World.create (world_config tracer 11) in
  let checkers = Zmail.World.attach_invariants world in
  Zmail.World.attach_user_traffic world ();
  Zmail.World.run_days world 0.25;
  (* Inject the fault the antisymmetry checker exists for: a delivery
     booked at ISP 1 that ISP 0 never sent (a double credit — the
     corrupted-kernel attack of §4.4).  The checker must trip on the
     very event, not at the next audit. *)
  let caught =
    try
      ignore (Zmail.Isp.accept_delivery (Zmail.World.isp world 1) ~from_isp:0 ~rcpt:0);
      None
    with Obs.Invariant.Violation v -> Some v
  in
  match caught with
  | None -> Alcotest.fail "injected double credit went undetected"
  | Some v ->
      Alcotest.(check string) "right checker fired" "credit-antisymmetry" v.Obs.Invariant.check;
      Alcotest.(check bool) "violation carries ring context" true
        (v.Obs.Invariant.context <> []);
      Alcotest.(check bool) "report renders" true
        (String.length (Format.asprintf "%a" Obs.Invariant.pp_violation v) > 0);
      List.iter Obs.Invariant.detach checkers

(* At quiescence the antisymmetry checker reports the smallest (a, b)
   still in flight, whatever order the pairs were first seen in.  With
   five ISPs the flow keys are [a * 5 + b]: pair (3,2) is key 17 and
   (0,2) key 2, so a 16-bucket table meets (3,2) first. *)
let test_antisymmetry_reports_smallest_pair () =
  let run pairs =
    let tr = Obs.Trace.create ~capacity:16 () in
    let c = Obs.Invariant.attach_antisymmetry tr ~honest:(Array.make 5 true) in
    List.iter
      (fun (a, b) ->
        Obs.Trace.emit tr ~actor:a ~fields:[ ("peer", Obs.Trace.Int b) ] ~comp:"credit"
          "send")
      pairs;
    let detail =
      match
        Obs.Trace.emit tr ~fields:[ ("quiescent", Obs.Trace.Bool true) ] ~comp:"obs"
          "checkpoint"
      with
      | () -> "no violation"
      | exception Obs.Invariant.Violation v -> v.Obs.Invariant.detail
    in
    Obs.Invariant.detach c;
    detail
  in
  let expected = "pair (0,2) has 1 credits in flight at quiescence" in
  Alcotest.(check string) "(3,2) seen first" expected (run [ (3, 2); (0, 2) ]);
  Alcotest.(check string) "(0,2) seen first" expected (run [ (0, 2); (3, 2) ])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_trace_ring;
          Alcotest.test_case "inert tracers" `Quick test_trace_inert;
          Alcotest.test_case "unsubscribe" `Quick test_trace_unsubscribe;
          Alcotest.test_case "spans" `Quick test_trace_spans;
        ] );
      ( "export",
        Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage
        :: Alcotest.test_case "chrome shape" `Quick test_chrome_shape
        :: qcheck [ test_jsonl_roundtrip; test_jsonl_document_roundtrip ] );
      ("metrics", [ Alcotest.test_case "registry" `Quick test_metrics_registry ]);
      ( "invariants",
        [
          Alcotest.test_case "deterministic trace" `Quick test_trace_deterministic;
          Alcotest.test_case "checkers pass on honest world" `Quick
            test_checkers_pass_on_honest_world;
          Alcotest.test_case "double credit caught" `Quick
            test_checker_catches_double_credit;
          Alcotest.test_case "antisymmetry reports the smallest pair" `Quick
            test_antisymmetry_reports_smallest_pair;
        ] );
    ]
