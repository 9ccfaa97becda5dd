(* Tests for the serving-path subsystem (lib/serve): the bounded
   admission ring, SLO classification and quantiles, session delivery
   equivalence with the direct path, backpressure semantics,
   and determinism of the dispatcher (run-to-run and through the
   snapshot codec). *)

let addr s = Smtp.Address.of_string_exn s

let entry ?(attempt = 0) ~submitted body =
  {
    Serve.Queue.envelope =
      Smtp.Envelope.v ~sender:(addr "a@a.com") ~recipients:[ addr "b@b.com" ];
    message =
      Smtp.Message.make_exn ~from:(addr "a@a.com") ~to_:[ addr "b@b.com" ] ~body ();
    submitted;
    attempt;
  }

let body e = Smtp.Message.body e.Serve.Queue.message

(* ------------------------------------------------------------------ *)
(* Queue: bounded FIFO ring                                            *)
(* ------------------------------------------------------------------ *)

let test_queue_fifo_and_bounds () =
  let q = Serve.Queue.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Serve.Queue.capacity q);
  Alcotest.(check bool) "empty" true (Serve.Queue.is_empty q);
  List.iter
    (fun b ->
      match Serve.Queue.push q (entry ~submitted:0. b) with
      | `Ok -> ()
      | `Full -> Alcotest.failf "refused %s below capacity" b)
    [ "1"; "2"; "3" ];
  Alcotest.(check bool) "full" true (Serve.Queue.is_full q);
  (match Serve.Queue.push q (entry ~submitted:0. "4") with
  | `Full -> ()
  | `Ok -> Alcotest.fail "grew past capacity");
  Alcotest.(check int) "refusal counted" 1 (Serve.Queue.refused q);
  Alcotest.(check int) "admissions counted" 3 (Serve.Queue.admitted q);
  (* FIFO across a wrap: pop the head, push another, drain. *)
  (match Serve.Queue.pop q with
  | Some e -> Alcotest.(check string) "oldest first" "1" (body e)
  | None -> Alcotest.fail "empty pop");
  (match Serve.Queue.push q (entry ~submitted:1. "5") with
  | `Ok -> ()
  | `Full -> Alcotest.fail "room after pop");
  let drained = ref [] in
  Serve.Queue.iter q (fun e -> drained := body e :: !drained);
  Alcotest.(check (list string)) "iter preserves order" [ "2"; "3"; "5" ]
    (List.rev !drained);
  let rec drain acc =
    match Serve.Queue.pop q with Some e -> drain (body e :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list string)) "pop order wraps correctly" [ "2"; "3"; "5" ]
    (drain []);
  Alcotest.(check bool) "empty again" true (Serve.Queue.is_empty q)

let test_queue_invalid_capacity () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Serve.Queue.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* SLO: classification and quantiles                                   *)
(* ------------------------------------------------------------------ *)

let test_slo_classification () =
  Alcotest.(check string) "paid first try" "paid"
    (Serve.Slo.klass_name (Serve.Slo.class_of_delivery ~attempt:0 ~paid:true));
  Alcotest.(check string) "unpaid first try" "unpaid"
    (Serve.Slo.klass_name (Serve.Slo.class_of_delivery ~attempt:0 ~paid:false));
  (* Retried wins over the payment split: the retry-storm tail must be
     visible regardless of postage. *)
  Alcotest.(check string) "retried beats paid" "retried"
    (Serve.Slo.klass_name (Serve.Slo.class_of_delivery ~attempt:2 ~paid:true))

let test_slo_quantiles () =
  let slo = Serve.Slo.create () in
  (* 1000 samples spread uniformly over [0.1 s, 100 s): the true p50 is
     ~50 s, p99 ~99 s.  The log-scale histogram guarantees ~12%
     relative error, so assert within that bound. *)
  for i = 0 to 999 do
    Serve.Slo.record slo Serve.Slo.Paid
      ~latency:(0.1 +. (float_of_int i /. 10.))
  done;
  Alcotest.(check int) "count" 1000 (Serve.Slo.count slo Serve.Slo.Paid);
  let within name expected got =
    if Float.abs (got -. expected) > 0.13 *. expected then
      Alcotest.failf "%s: %g not within 13%% of %g" name got expected
  in
  within "p50" 50. (Serve.Slo.quantile slo Serve.Slo.Paid 0.5);
  within "p99" 99. (Serve.Slo.quantile slo Serve.Slo.Paid 0.99);
  Alcotest.(check bool) "empty class is nan" true
    (Float.is_nan (Serve.Slo.quantile slo Serve.Slo.Bounced 0.5));
  Alcotest.(check int) "empty class count" 0
    (Serve.Slo.count slo Serve.Slo.Bounced)

(* ------------------------------------------------------------------ *)
(* Dispatch: sessions, backpressure, determinism                       *)
(* ------------------------------------------------------------------ *)

let serve_config =
  {
    Serve.Config.default with
    Serve.Config.queue_depth = 1;
    max_sessions = 1;
    rtt = (fun _ -> 0.05);
    bytes_per_sec = 1e6;
  }

let make_net ~seed =
  let engine = Sim.Engine.create ~seed () in
  let net = Smtp.Mta.network engine in
  let mta_a = Smtp.Mta.create net ~hostname:"mx.a.com" ~domains:[ "a.com" ] in
  let mta_b = Smtp.Mta.create net ~hostname:"mx.b.com" ~domains:[ "b.com" ] in
  (engine, net, mta_a, mta_b)

let submit_one mta ~body =
  let from = addr "alice@a.com" and to_ = addr "bob@b.com" in
  Smtp.Mta.submit mta
    (Smtp.Envelope.v ~sender:from ~recipients:[ to_ ])
    (Smtp.Message.make_exn ~from ~to_:[ to_ ] ~body ())

let test_session_delivers_like_direct () =
  (* The same single message through the served and the direct path:
     identical mailbox outcome (body, Received stamp, delivery count),
     differing only in timing/session mechanics. *)
  let deliver ~serve =
    let engine, net, mta_a, mta_b = make_net ~seed:41 in
    let d =
      if serve then
        Some
          (Serve.Dispatch.attach ~config:serve_config
             ~rng:(Sim.Rng.create 0x5e17e) net)
      else None
    in
    submit_one mta_a ~body:"hello via either path";
    Sim.Engine.run engine;
    (d, Smtp.Mta.stats mta_a, Smtp.Mta.stats mta_b,
     Smtp.Mailbox.messages (Smtp.Mta.mailboxes mta_b) (addr "bob@b.com"))
  in
  let d, sa, sb, served = deliver ~serve:true in
  let _, sa', sb', direct = deliver ~serve:false in
  (match (served, direct) with
  | [ m ], [ m' ] ->
      Alcotest.(check string) "same body" (Smtp.Message.body m')
        (Smtp.Message.body m);
      Alcotest.(check bool) "served path stamps Received" true
        (Smtp.Message.header m "Received" <> None)
  | _ -> Alcotest.fail "expected exactly one delivery on each path");
  Alcotest.(check int) "same submitted" sa'.Smtp.Mta.submitted
    sa.Smtp.Mta.submitted;
  Alcotest.(check int) "same delivered" sb'.Smtp.Mta.delivered
    sb.Smtp.Mta.delivered;
  Alcotest.(check int) "one session on each path" sa'.Smtp.Mta.sessions
    sa.Smtp.Mta.sessions;
  match d with
  | Some d ->
      Alcotest.(check int) "dispatcher ran it" 1
        (Serve.Dispatch.sessions_started d);
      Alcotest.(check int) "recorded in the SLO" 1
        (Serve.Slo.count (Serve.Dispatch.slo d) Serve.Slo.Unpaid)
  | None -> Alcotest.fail "dispatcher missing"

let test_drop_policy_backpressures () =
  let engine, net, mta_a, _mta_b = make_net ~seed:43 in
  let d =
    Serve.Dispatch.attach ~config:serve_config ~rng:(Sim.Rng.create 1) net
  in
  let from = addr "alice@a.com" and to_ = addr "bob@b.com" in
  let submit_checked body =
    Smtp.Mta.submit_checked mta_a
      (Smtp.Envelope.v ~sender:from ~recipients:[ to_ ])
      (Smtp.Message.make_exn ~from ~to_:[ to_ ] ~body ())
  in
  (* Slot (1 session) + queue (depth 1) absorb two; the third must be
     refused, with no side effects on the submitter's counters. *)
  let verdicts = List.map (fun b -> submit_checked b) [ "1"; "2"; "3"; "4" ] in
  let accepted =
    List.length (List.filter (fun v -> v = `Submitted) verdicts)
  in
  let refused =
    List.length (List.filter (fun v -> v = `Backpressure) verdicts)
  in
  Alcotest.(check int) "two admitted" 2 accepted;
  Alcotest.(check int) "two backpressured" 2 refused;
  (* [submit_checked] is a pure probe: a refusal moves NO counter
     anywhere — not the MTA's submitted, not the dispatcher's
     backpressured (the caller owns that accounting, so it can undo
     its own legs and re-offer). *)
  Alcotest.(check int) "probe refusal is side-effect-free" 0
    (Serve.Dispatch.backpressured d);
  Alcotest.(check int) "refusal has no submit side effect" 2
    (Smtp.Mta.stats mta_a).Smtp.Mta.submitted;
  Alcotest.(check int) "nothing parked for retry" 0
    (Smtp.Mta.retry_queue_length net);
  (* Plain [submit] while the lane is still full: the dispatcher owns
     the refusal, which surfaces as an immediate 421-style bounce. *)
  submit_one mta_a ~body:"5";
  Alcotest.(check int) "submit refusal counted" 1
    (Serve.Dispatch.backpressured d);
  Alcotest.(check int) "and bounced" 1 (Smtp.Mta.stats mta_a).Smtp.Mta.bounced;
  Sim.Engine.run engine;
  Alcotest.(check int) "admitted mail drains and delivers" 2
    (Smtp.Mta.stats (Smtp.Mta.find_host net (Smtp.Mta.host _mta_b)))
      .Smtp.Mta.delivered;
  Alcotest.(check int) "queue empty after drain" 0 (Serve.Dispatch.queue_depth d);
  Alcotest.(check int) "no sessions left" 0 (Serve.Dispatch.active_sessions d)

(* Run one moderately-contended scenario and return the dispatcher's
   encoded state plus headline counters. *)
let run_scenario ~seed =
  let engine, net, mta_a, mta_b = make_net ~seed in
  let d =
    Serve.Dispatch.attach
      ~config:{ serve_config with Serve.Config.queue_depth = 4; max_sessions = 2 }
      ~rng:(Sim.Rng.stream ~seed ~tag:0x5e17e)
      net
  in
  for i = 1 to 12 do
    ignore
      (Sim.Engine.schedule_after engine
         ~delay:(0.01 *. float_of_int i)
         (fun () -> submit_one mta_a ~body:(string_of_int i)))
  done;
  Sim.Engine.run engine;
  let w = Persist.Codec.W.create () in
  Serve.Dispatch.encode_state w d;
  ( Persist.Codec.W.contents w,
    d,
    ((Smtp.Mta.stats mta_b).Smtp.Mta.delivered,
     (Smtp.Mta.stats mta_a).Smtp.Mta.bounced),
    Serve.Dispatch.sessions_started d )

let test_dispatch_deterministic () =
  let s1, _, (delivered1, bounced1), sessions1 = run_scenario ~seed:53 in
  let s2, _, (delivered2, bounced2), sessions2 = run_scenario ~seed:53 in
  Alcotest.(check int) "same deliveries" delivered1 delivered2;
  Alcotest.(check int) "same bounces" bounced1 bounced2;
  Alcotest.(check int) "same session count" sessions1 sessions2;
  Alcotest.(check bool) "encoded dispatcher state byte-identical" true
    (String.equal s1 s2);
  (* The burst over-offers the lane on purpose (2 slots + 4 queued):
     the overflow bounces 421-style and every send is still accounted
     for exactly once. *)
  Alcotest.(check int) "delivered + bounced covers every send" 12
    (delivered1 + bounced1);
  Alcotest.(check bool) "the lane did deliver" true (delivered1 >= 6)

let test_queue_capture_pins_occupancy () =
  let capture labels =
    let q = Serve.Queue.create ~capacity:4 in
    List.iter (fun b -> ignore (Serve.Queue.push q (entry ~submitted:1.5 b))) labels;
    Persist.Codec.to_string (fun w () -> Serve.Queue.encode_state w q) ()
  in
  Alcotest.(check bool) "same pushes, same capture" true
    (String.equal (capture [ "a"; "b"; "c" ]) (capture [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "the capture pins occupancy" false
    (String.equal (capture [ "a"; "b"; "c" ]) (capture [ "a"; "b" ]))

let () =
  Alcotest.run "serve"
    [
      ( "queue",
        [
          Alcotest.test_case "fifo ring + bounds" `Quick test_queue_fifo_and_bounds;
          Alcotest.test_case "invalid capacity" `Quick test_queue_invalid_capacity;
          Alcotest.test_case "capture pins occupancy" `Quick
            test_queue_capture_pins_occupancy;
        ] );
      ( "slo",
        [
          Alcotest.test_case "classification" `Quick test_slo_classification;
          Alcotest.test_case "quantiles" `Quick test_slo_quantiles;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "equivalent to direct path" `Quick
            test_session_delivers_like_direct;
          Alcotest.test_case "drop backpressures" `Quick
            test_drop_policy_backpressures;
          Alcotest.test_case "deterministic" `Quick test_dispatch_deterministic;
        ] );
    ]
