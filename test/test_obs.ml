(* Tests for the observability subsystem: trace ring semantics, the
   JSONL round-trip, trace determinism, the metric registry, and the
   online invariant checkers. *)

(* ------------------------------------------------------------------ *)
(* Trace: ring buffer, sinks, spans                                    *)
(* ------------------------------------------------------------------ *)

let send peer = Obs.Trace.Credit_send { peer }

let peers events =
  List.map
    (fun (ev : Obs.Trace.event) ->
      match ev.payload with Obs.Trace.Credit_send { peer } -> peer | _ -> -1)
    events

let test_trace_ring () =
  let tr = Obs.Trace.create ~capacity:2 () in
  Alcotest.(check bool) "active with capacity" true (Obs.Trace.active tr);
  for k = 1 to 3 do
    Obs.Trace.emit tr ~actor:0 (send k)
  done;
  Alcotest.(check (list int)) "ring keeps the newest" [ 2; 3 ]
    (peers (Obs.Trace.events tr));
  Alcotest.(check int) "emitted counts everything" 3 (Obs.Trace.emitted tr);
  Alcotest.(check int) "dropped counts evictions" 1 (Obs.Trace.dropped tr);
  Alcotest.(check int) "seq is emission order" 2
    (match List.rev (Obs.Trace.events tr) with
    | last :: _ -> last.Obs.Trace.seq
    | [] -> -1);
  Obs.Trace.clear tr;
  Alcotest.(check (list int)) "clear empties the ring" []
    (peers (Obs.Trace.events tr))

let test_trace_inert () =
  Alcotest.(check bool) "none is inactive" false (Obs.Trace.active Obs.Trace.none);
  Obs.Trace.emit Obs.Trace.none ~actor:0 (send 1);
  Alcotest.(check int) "none records nothing" 0 (Obs.Trace.emitted Obs.Trace.none);
  let zero = Obs.Trace.create ~capacity:0 () in
  Alcotest.(check bool) "capacity 0, no sinks: inactive" false (Obs.Trace.active zero);
  Obs.Trace.emit zero ~actor:0 (send 1);
  Alcotest.(check int) "inactive emit is free" 0 (Obs.Trace.emitted zero);
  (* A subscriber turns the capacity-0 tracer on: events flow to the
     sink even though the ring still records nothing. *)
  let seen = ref 0 in
  Obs.Trace.subscribe zero (fun _ -> incr seen);
  Alcotest.(check bool) "sink activates it" true (Obs.Trace.active zero);
  Obs.Trace.emit zero ~actor:0 (send 2);
  Alcotest.(check int) "sink sees the event" 1 !seen;
  Alcotest.(check (list int)) "ring still empty" [] (peers (Obs.Trace.events zero))

let test_trace_unsubscribe () =
  let tr = Obs.Trace.create ~capacity:4 () in
  let seen = ref 0 in
  let sink _ = incr seen in
  Obs.Trace.subscribe tr sink;
  Obs.Trace.emit tr ~actor:0 (send 1);
  Obs.Trace.unsubscribe tr sink;
  Obs.Trace.emit tr ~actor:0 (send 2);
  Alcotest.(check int) "detached sink sees nothing more" 1 !seen

let test_trace_spans () =
  let tr = Obs.Trace.create ~capacity:8 () in
  let s1 =
    Obs.Trace.span_begin tr ~actor:0 (Obs.Trace.Isp_buy_begin { nonce = 1; amount = 5 })
  in
  let s2 =
    Obs.Trace.span_begin tr ~actor:0 (Obs.Trace.Isp_sell_begin { nonce = 2; amount = 3 })
  in
  Alcotest.(check bool) "span ids distinct and nonzero" true
    (s1 <> s2 && s1 <> 0 && s2 <> 0);
  Obs.Trace.span_end tr ~actor:0 ~span:s2 (Obs.Trace.Isp_sell_end { accepted = true });
  Obs.Trace.span_end tr ~actor:0 ~span:s1 (Obs.Trace.Isp_buy_end { accepted = true });
  (match Obs.Trace.events tr with
  | [ b1; b2; e2; e1 ] ->
      Alcotest.(check int) "begin/end share ids" b1.Obs.Trace.span e1.Obs.Trace.span;
      Alcotest.(check int) "inner pair matches" b2.Obs.Trace.span e2.Obs.Trace.span;
      Alcotest.(check bool) "phases" true
        (b1.Obs.Trace.phase = Obs.Trace.Begin && e2.Obs.Trace.phase = Obs.Trace.End)
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs));
  Alcotest.(check int) "inactive span id is 0" 0
    (Obs.Trace.span_begin Obs.Trace.none ~actor:0
       (Obs.Trace.Isp_buy_begin { nonce = 3; amount = 1 }))

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

(* One generator per payload constructor, so the round trip covers the
   whole vocabulary: every kind, its field order, int lists (rendered
   comma-joined) and string fields full of JSON-hostile bytes. *)
let payload_gen =
  let open QCheck.Gen in
  let ints = list_size (int_bound 4) int in
  let open Obs.Trace in
  oneof
    [
      (let+ user = int and+ dest = int in Isp_charge { user; dest });
      (let+ user = int and+ dest = int in Isp_refund { user; dest });
      (let+ from = int and+ rcpt = int in Isp_settle { from; rcpt });
      (let+ peer = int and+ user = int in Isp_mint { peer; user });
      (let+ nonce = int and+ amount = int in Isp_buy_begin { nonce; amount });
      (let+ accepted = bool in Isp_buy_end { accepted });
      (let+ nonce = int and+ amount = int in Isp_sell_begin { nonce; amount });
      (let+ accepted = bool in Isp_sell_end { accepted });
      (let+ nonce = int and+ amount = int and+ accepted = bool in
       Isp_buy_apply { nonce; amount; accepted });
      (let+ nonce = int and+ amount = int and+ taken = int in
       Isp_sell_apply { nonce; amount; taken });
      (let+ seq = int in Isp_freeze { seq });
      (let+ seq = int in Isp_thaw { seq });
      (let+ peer = int in Credit_send { peer });
      (let+ peer = int in Credit_recv { peer });
      (let+ peer = int and+ epoch = int in Credit_recv_early { peer; epoch });
      (let+ peer = int and+ epoch = int in Credit_recv_amended { peer; epoch });
      (let+ peer = int in Credit_cancel { peer });
      (let+ upto = int and+ count = int in Credit_fold { upto; count });
      (let+ promoted = int in Credit_reset { promoted });
      (let+ isp = int and+ nonce = int and+ amount = int and+ accepted = bool in
       Bank_buy { isp; nonce; amount; accepted });
      (let+ isp = int and+ nonce = int and+ amount = int in
       Bank_buy_replay { isp; nonce; amount });
      (let+ isp = int and+ nonce = int and+ amount = int in
       Bank_sell { isp; nonce; amount });
      (let+ isp = int and+ nonce = int and+ amount = int in
       Bank_sell_replay { isp; nonce; amount });
      (let+ isp = int and+ seq = int and+ amended = bool in
       Bank_audit_reply { isp; seq; amended });
      (let+ isp = int and+ reason = tricky_string in Bank_reject { isp; reason });
      (let+ seq = int and+ absent = int in Bank_audit_begin { seq; absent });
      (let+ seq = int and+ violations = int and+ suspects = int and+ absent = int
       and+ rings = int and+ convicted = int and+ cleared = int
       and+ lied_volume = int and+ ring_volume = int and+ convicted_isps = ints
       and+ ring_isps = ints and+ cleared_isps = ints in
       Bank_audit_end
         { seq; violations; suspects; absent; rings; convicted; cleared;
           lied_volume; ring_volume; convicted_isps; ring_isps; cleared_isps });
      (let+ timeout = finite_float in World_retransmit { timeout });
      (let+ kind = tricky_string in World_bankwire_drop { kind });
      (let+ delay = finite_float in World_bankwire_delay { delay });
      (let+ kind = tricky_string in World_bankwire_inject { kind });
      pure World_audit_deferred_bank_down;
      (let+ unreachable = int in World_audit_deferred { unreachable });
      (let+ why = tricky_string in World_recover_failed { why });
      (let+ downtime = finite_float in World_crash { downtime });
      pure World_recover;
      (let+ downtime = finite_float in World_bank_crash { downtime });
      pure World_bank_recover;
      pure World_backpressured;
      pure World_refused_down;
      pure World_deferred;
      (let+ total = int and+ outstanding = int and+ minted = int
       and+ quiescent = bool in
       Obs_checkpoint { total; outstanding; minted; quiescent });
    ]

(* Span kinds carry their phase; every other kind is an instant. *)
let phase_of : Obs.Trace.payload -> Obs.Trace.phase = function
  | Isp_buy_begin _ | Isp_sell_begin _ | Bank_audit_begin _ -> Begin
  | Isp_buy_end _ | Isp_sell_end _ | Bank_audit_end _ -> End
  | _ -> Instant

let event_gen =
  let open QCheck.Gen in
  let+ seq = small_nat
  and+ time = finite_float
  and+ actor = int_range (-1) 40
  and+ span = small_nat
  and+ payload = payload_gen in
  { Obs.Trace.seq; time; actor; phase = phase_of payload; span; payload }

(* One event's JSONL line, without its newline. *)
let event_to_json ev =
  let doc = Obs.Export.to_jsonl [ ev ] in
  String.sub doc 0 (String.length doc - 1)


let test_jsonl_roundtrip =
  QCheck.Test.make ~name:"jsonl round-trip: parse (print ev) = ev" ~count:500
    (QCheck.make ~print:event_to_json event_gen)
    (fun ev ->
      match Obs.Export.event_of_json (event_to_json ev) with
      | Ok ev' -> ev' = ev
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg)

let test_jsonl_document_roundtrip =
  QCheck.Test.make ~name:"jsonl document round-trip" ~count:100
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map event_to_json evs))
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
    [ ""; "{"; "not json"; "{\"seq\":}"; "{\"seq\":1}"; "[1,2]" ];
  (* Well-formed JSON that names no kind, or a kind with the wrong
     fields, is refused with a message naming the kind. *)
  let line ~comp ~ph ~name fields =
    Printf.sprintf
      "{\"seq\":0,\"t\":0.0,\"comp\":\"%s\",\"actor\":0,\"ph\":\"%s\",\"name\":\"%s\",\"span\":0,\"fields\":{%s}}"
      comp ph name fields
  in
  List.iter
    (fun (doc, expected) ->
      match Obs.Export.event_of_json doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error msg -> Alcotest.(check string) doc expected msg)
    [
      ( line ~comp:"isp" ~ph:"I" ~name:"teleport" "",
        "unknown event kind isp/teleport (phase I)" );
      ( line ~comp:"gossip" ~ph:"I" ~name:"charge" "",
        "unknown event kind gossip/charge (phase I)" );
      ( line ~comp:"isp" ~ph:"I" ~name:"buy" "\"accepted\":true",
        "unknown event kind isp/buy (phase I)" );
      (line ~comp:"credit" ~ph:"I" ~name:"send" "", "credit/send: missing field peer");
      ( line ~comp:"credit" ~ph:"I" ~name:"send" "\"peer\":1,\"extra\":2",
        "credit/send: fields do not match the kind" );
      ( line ~comp:"bank" ~ph:"E" ~name:"audit"
          "\"seq\":0,\"violations\":0,\"suspects\":0,\"absent\":0,\"rings\":0,\"convicted\":0,\"cleared\":0,\"lied_volume\":0,\"ring_volume\":0,\"convicted_isps\":\"1,x\",\"ring_isps\":\"\",\"cleared_isps\":\"\"",
        "bank/audit: convicted_isps: expected comma-separated ints" );
    ]

let test_chrome_shape () =
  let tr = Obs.Trace.create ~capacity:8 () in
  Obs.Trace.set_clock tr (fun () -> 1.5);
  Obs.Trace.emit tr ~actor:2 (Obs.Trace.Isp_charge { user = 0; dest = 1 });
  let span =
    Obs.Trace.span_begin tr ~actor:0 (Obs.Trace.Isp_buy_begin { nonce = 1; amount = 5 })
  in
  Obs.Trace.span_end tr ~span ~actor:0 (Obs.Trace.Isp_buy_end { accepted = true });
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
    List.iter (fun (a, b) -> Obs.Trace.emit tr ~actor:a (send b)) pairs;
    let detail =
      match
        Obs.Trace.emit tr ~actor:(-1)
          (Obs.Trace.Obs_checkpoint
             { total = 0; outstanding = 0; minted = 0; quiescent = true })
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

(* The flow table grows from 16 slots to thousands: every pair of 50
   honest ISPs sends and receives once, the books settle, and one more
   receive on a pair inserted mid-growth is still caught. *)
let test_antisymmetry_across_growth () =
  let n = 50 in
  let tr = Obs.Trace.create ~capacity:0 () in
  let c = Obs.Invariant.attach_antisymmetry tr ~honest:(Array.make n true) in
  let pairs = List.init (n * n) (fun k -> (k / n, k mod n)) in
  List.iter (fun (a, b) -> Obs.Trace.emit tr ~actor:a (send b)) pairs;
  List.iter
    (fun (a, b) -> Obs.Trace.emit tr ~actor:b (Obs.Trace.Credit_recv { peer = a }))
    pairs;
  Obs.Trace.emit tr ~actor:(-1)
    (Obs.Trace.Obs_checkpoint { total = 0; outstanding = 0; minted = 0; quiescent = true });
  Alcotest.(check int) "every event checked" ((2 * n * n) + 1) (Obs.Invariant.checks c);
  let detail =
    match Obs.Trace.emit tr ~actor:33 (Obs.Trace.Credit_recv { peer = 17 }) with
    | () -> "no violation"
    | exception Obs.Invariant.Violation v -> v.Obs.Invariant.detail
  in
  Obs.Invariant.detach c;
  Alcotest.(check string) "double credit after growth"
    "isp 33 booked 2 receives from isp 17 against only 1 sends — a double \
     credit breaks credit_33[17] + credit_17[33] = 0"
    detail

(* ------------------------------------------------------------------ *)
(* Allocation of emission and the online checkers                      *)
(* ------------------------------------------------------------------ *)

(* Minor words one paid inter-ISP send costs in events: ISP 0 charges
   and books [credit[1] += 1] ([isp/charge], [credit/send]), ISP 1
   settles and books the receive ([isp/settle], [credit/recv]), with
   the four checkers attached to a ring-less tracer as in perfbench's
   [zipf_scale].  The same kernel calls on an untraced world are the
   baseline, so the difference is emission plus checking alone.  It
   measured 32.0 words per event with (name, value) field lists and
   9.5 with typed payloads: the 7-word event record, the payload (2 or
   3 words), and nothing in the checkers.  The bound leaves ~10%
   slack. *)
let event_words = 10.5

let paid_send_words ~traced =
  let w =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:2 ~users_per_isp:4) with
        Zmail.World.customize_isp =
          (fun _ c -> { c with Zmail.Isp.daily_limit = 1_000_000 });
      }
  in
  let checkers = if traced then Zmail.World.attach_invariants w else [] in
  let a = Zmail.World.isp w 0 and b = Zmail.World.isp w 1 in
  (* There and back, so balances and credit flows return to zero. *)
  let round_trip () =
    ignore (Zmail.Isp.charge_send a ~sender:0 ~dest_isp:1);
    ignore (Zmail.Isp.accept_delivery b ~from_isp:0 ~rcpt:0);
    ignore (Zmail.Isp.charge_send b ~sender:0 ~dest_isp:0);
    ignore (Zmail.Isp.accept_delivery a ~from_isp:1 ~rcpt:0)
  in
  round_trip ();
  let n = 500 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    round_trip ()
  done;
  let words = Gc.minor_words () -. before in
  let checks = List.fold_left (fun acc c -> acc + Obs.Invariant.checks c) 0 checkers in
  List.iter Obs.Invariant.detach checkers;
  (words, checks, 2 * n)

let test_event_allocation () =
  let plain, _, sends = paid_send_words ~traced:false in
  let traced, checks, _ = paid_send_words ~traced:true in
  (* Antisymmetry evaluates the send and the receive of every message
     (one warm-up round trip included). *)
  Alcotest.(check int) "checkers ran" (2 * (sends + 2)) checks;
  let per_event = (traced -. plain) /. float_of_int (4 * sends) in
  if per_event > event_words then
    Alcotest.failf "%.1f words per event (bound %.0f)" per_event event_words

(* ------------------------------------------------------------------ *)
(* Trace vocabulary golden                                             *)
(* ------------------------------------------------------------------ *)

(* test/golden/trace_kinds.jsonl holds, for each event kind the library
   emits, its first JSONL line and that event's Chrome rendering (two
   lines per kind).  A kind is (comp, name, phase, field names).  The
   kinds come from traced runs of E16, E18, E19 and E21 at seed 0 (E23
   records into no shared tracer), then from [rare_kinds_world] for
   the kinds no experiment emits (world/backpressured, recover_failed,
   bank_crash, bank_recover and both audit_deferred shapes), so each of
   those has a golden line too.  test/golden/trace_e16_md5.txt pins
   the digests of E16's whole JSONL and Chrome exports at seeds 0 and
   1.  To regenerate both after an intentional change:

     ZMAIL_BLESS_GOLDEN=$PWD/test/golden dune exec test/test_obs.exe *)
let kinds_golden = "golden/trace_kinds.jsonl"
let md5_golden = "golden/trace_e16_md5.txt"

(* The ring the CLI's [--trace] uses, so digests match its files. *)
let experiment_events id ~seed =
  let tracer = Obs.Trace.create ~capacity:262_144 () in
  let exp = Option.get (Harness.Experiments.find id) in
  ignore
    (exp.Harness.Experiments.run ~full:false ~seed
       ~obs:{ Obs.Run.tracer = Some tracer; metrics = false }
       ~persist:Harness.Checkpoint.none ~domains:None);
  Obs.Trace.events tracer

(* The kind of a rendered JSONL line, read off the text so the key does
   not depend on how events are represented in memory. *)
let kind_of_line line =
  let after needle from =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length line then raise Not_found
      else if String.sub line i n = needle then i + n
      else go (i + 1)
    in
    go from
  in
  (* The end of the string literal whose body starts at [i]. *)
  let rec close i =
    match line.[i] with '"' -> i | '\\' -> close (i + 2) | _ -> close (i + 1)
  in
  let member key =
    let i = after ("\"" ^ key ^ "\":\"") 0 in
    String.sub line i (close i - i)
  in
  let rec keys i acc =
    match line.[i] with
    | '"' ->
        let j = close (i + 1) in
        let acc =
          if line.[j + 1] = ':' then String.sub line (i + 1) (j - i - 1) :: acc
          else acc
        in
        keys (j + 1) acc
    | '}' -> List.rev acc
    | _ -> keys (i + 1) acc
  in
  String.concat " "
    (member "comp" :: member "name" :: member "ph"
     :: keys (after "\"fields\":{" 0) [])

(* The Chrome line of one event: the document's last event line. *)
let chrome_line ev =
  match List.rev (String.split_on_char '\n' (Obs.Export.to_chrome [ ev ])) with
  | _ :: _ :: line :: _ -> line
  | _ -> Alcotest.fail "unexpected Chrome document shape"

(* Kinds no experiment emits, each driven through the world API that
   emits it: serving backpressure, a failed ISP WAL recovery, a bank
   crash and recovery, and an audit round deferred first with the bank
   down, then with too few ISPs reachable. *)
let rare_kinds_world () =
  let tracer = Obs.Trace.create ~capacity:65_536 () in
  let hour = Sim.Engine.hour in
  let w =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:3 ~users_per_isp:4) with
        Zmail.World.seed = 5;
        tracer = Some tracer;
        disk = Some Sim.Disk.reliable;
        serving =
          Some { Serve.Config.default with queue_depth = 1; max_sessions = 1 };
        (* Node 3 is the bank: ISPs 1 and 2 lose it from 5 h to 6 h. *)
        partitions =
          [ Sim.Fault.Mesh.partition ~start:(5. *. hour) ~stop:(6. *. hour)
              ~groups:[| 0; 1; 1; 0 |] ];
      }
  in
  let at time f =
    ignore (Sim.Engine.schedule_after (Zmail.World.engine w) ~delay:time f)
  in
  for u = 0 to 3 do
    ignore (Zmail.World.send_email w ~from:(0, u) ~to_:(1, u) ())
  done;
  at (1. *. hour) (fun () ->
      Zmail.World.crash_isp w ~isp:2 ~downtime:600.;
      Option.iter
        (fun d -> Sim.Disk.reset_to d "")
        (Zmail.Isp.disk (Zmail.World.isp w 2)));
  at (2. *. hour) (fun () -> Zmail.World.crash_bank w ~downtime:600.);
  at ((2. *. hour) +. 60.) (fun () -> Zmail.World.trigger_audit w);
  at (5.5 *. hour) (fun () -> Zmail.World.trigger_audit w);
  Zmail.World.run_days w 0.5;
  Obs.Trace.events tracer

let render_kinds sources =
  let seen = Hashtbl.create 64 in
  let buf = Buffer.create 16384 in
  List.iter
    (fun events ->
      List.iter
        (fun ev ->
          let line = event_to_json ev in
          let kind = kind_of_line line in
          if not (Hashtbl.mem seen kind) then begin
            Hashtbl.replace seen kind ();
            Buffer.add_string buf line;
            Buffer.add_char buf '\n';
            Buffer.add_string buf (chrome_line ev);
            Buffer.add_char buf '\n'
          end)
        events)
    sources;
  Buffer.contents buf

let render_md5s () =
  String.concat ""
    (List.concat_map
       (fun seed ->
         let events = experiment_events "e16" ~seed in
         List.map
           (fun (format, doc) ->
             Printf.sprintf "e16 seed %d %s %s\n" seed format
               (Digest.to_hex (Digest.string doc)))
           [ ("jsonl", Obs.Export.to_jsonl events);
             ("chrome", Obs.Export.to_chrome events) ])
       [ 0; 1 ])

let check_golden path live =
  match Sys.getenv_opt "ZMAIL_BLESS_GOLDEN" with
  | Some dir ->
      let out = Filename.concat dir (Filename.basename path) in
      Out_channel.with_open_bin out (fun oc -> output_string oc live);
      Printf.eprintf "blessed %s\n%!" out
  | None ->
      let golden = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string)
        (path ^ " matches (regenerate per the comment above [kinds_golden] if \
                  the change is intentional)")
        golden live

let test_trace_kinds_golden () =
  let sources =
    List.map (fun id -> experiment_events id ~seed:0) [ "e16"; "e18"; "e19"; "e21" ]
  in
  check_golden kinds_golden (render_kinds (sources @ [ rare_kinds_world () ]))

let test_trace_md5_golden () = check_golden md5_golden (render_md5s ())

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
          Alcotest.test_case "antisymmetry across table growth" `Quick
            test_antisymmetry_across_growth;
        ] );
      ("allocation", [ Alcotest.test_case "paid send events" `Quick test_event_allocation ]);
      ( "golden",
        [
          Alcotest.test_case "trace kinds" `Quick test_trace_kinds_golden;
          Alcotest.test_case "e16 trace digests" `Quick test_trace_md5_golden;
        ] );
    ]
