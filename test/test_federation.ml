(* Tests for the distributed-banks extension (§5 "Bank Setup"). *)

let rng () = Sim.Rng.create 55

let make ?(n_banks = 2) ?(n_isps = 4) ?(f = fun c -> c) () =
  let cfg = f (Zmail.Federation.default_config ~n_banks ~n_isps) in
  (cfg, Zmail.Federation.create (rng ()) cfg)

let seal_to t ~isp payload =
  let bank = Zmail.Federation.home_of t ~isp in
  Zmail.Wire.seal_for_bank (rng ()) (Zmail.Federation.public_key t ~bank) payload

(* Move cash between banks the exactly-once way: a signed transfer
   delivered at its destination. *)
let transfer fed (from_bank, to_bank, amount) =
  let xfer_id = Zmail.Federation.next_xfer_id fed in
  match
    Zmail.Federation.receive_transfer fed
      (Zmail.Federation.sign_transfer fed ~from_bank ~to_bank ~amount ~xfer_id)
  with
  | Ok _ -> ()
  | Error r -> Alcotest.fail (Zmail.Bank.reject_to_string r)

(* Plan a settlement and land every planned transfer. *)
let settle fed =
  let plan = Zmail.Federation.settle_plan fed in
  List.iter (transfer fed) plan;
  plan

let test_homing () =
  let _, t = make () in
  Alcotest.(check int) "round robin 0" 0 (Zmail.Federation.home_of t ~isp:0);
  Alcotest.(check int) "round robin 1" 1 (Zmail.Federation.home_of t ~isp:1);
  Alcotest.(check int) "round robin 2" 0 (Zmail.Federation.home_of t ~isp:2);
  Alcotest.(check bool) "distinct bank keys" true
    (Toycrypto.Rsa.key_id (Zmail.Federation.public_key t ~bank:0)
    <> Toycrypto.Rsa.key_id (Zmail.Federation.public_key t ~bank:1))

let test_buy_at_home_bank () =
  let _, t = make () in
  let sealed = seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 500; nonce = 1L }) in
  (match Zmail.Federation.on_isp_message t ~from_isp:0 sealed with
  | Zmail.Federation.Reply signed -> (
      match
        Zmail.Wire.verify_from_bank (Zmail.Federation.public_key t ~bank:0) signed
      with
      | Some (Zmail.Wire.Buy_reply { accepted = true; nonce = 1L }) -> ()
      | _ -> Alcotest.fail "expected an accepted buy reply signed by bank 0")
  | Zmail.Federation.Rejected r -> Alcotest.fail (Zmail.Bank.reject_to_string r));
  Alcotest.(check int) "account debited" (1_000_000 - 500)
    (Zmail.Federation.account_balance t ~isp:0);
  Alcotest.(check int) "bank 0 outstanding" 500 (Zmail.Federation.outstanding t ~bank:0);
  Alcotest.(check int) "bank 1 untouched" 0 (Zmail.Federation.outstanding t ~bank:1);
  Alcotest.(check int) "federation outstanding" 500 (Zmail.Federation.total_outstanding t)

let test_foreign_bank_rejected () =
  let _, t = make () in
  (* ISP 0 is homed at bank 0; seal to bank 1's key instead. *)
  let sealed =
    Zmail.Wire.seal_for_bank (rng ())
      (Zmail.Federation.public_key t ~bank:1)
      (Zmail.Wire.Buy { amount = 500; nonce = 2L })
  in
  match Zmail.Federation.on_isp_message t ~from_isp:0 sealed with
  | Zmail.Federation.Rejected _ ->
      Alcotest.(check int) "nothing issued anywhere" 0
        (Zmail.Federation.total_outstanding t)
  | Zmail.Federation.Reply _ -> Alcotest.fail "foreign-bank envelope must be rejected"

(* A replayed buy is answered from the home bank's reply cache: the
   same signed reply, and no money moves. *)
let test_replay_answered_from_cache () =
  let _, t = make () in
  let sealed = seal_to t ~isp:1 (Zmail.Wire.Buy { amount = 100; nonce = 3L }) in
  let serve () =
    match Zmail.Federation.on_isp_message t ~from_isp:1 sealed with
    | Zmail.Federation.Reply signed -> signed
    | Zmail.Federation.Rejected r -> Alcotest.fail (Zmail.Bank.reject_to_string r)
  in
  let first = serve () in
  Alcotest.(check bool) "the replay gets the cached reply" true (serve () = first);
  Alcotest.(check int) "debited once" (1_000_000 - 100)
    (Zmail.Federation.account_balance t ~isp:1);
  Alcotest.(check int) "issued once" 100 (Zmail.Federation.total_outstanding t)

(* The reply to a buy is lost on the way back and the ISP retransmits
   the same sealed envelope.  The home bank must answer from its reply
   cache: the same accepted [Buy_reply], no second debit, and once the
   kernel reads it the pending buy clears and the kernel's e-penny
   growth equals the federation's liability. *)
let test_lost_reply_retransmit () =
  let n_isps = 2 in
  let _, t = make ~n_isps () in
  let kernel =
    Zmail.Isp.create (rng ())
      { (Zmail.Isp.default_config ~index:0 ~n_isps ~n_users:2
           ~compliant:(Array.make n_isps true)
           ~bank_public:(Zmail.Federation.public_key t ~bank:0))
        with
        Zmail.Isp.minavail = 2000;
        maxavail = 4000;
        initial_avail = 1000;
        buy_amount = 500;
      }
  in
  let initial = Zmail.Isp.total_epennies kernel in
  let sealed =
    match Zmail.Isp.pool_action kernel with
    | Some sealed -> sealed
    | None -> Alcotest.fail "kernel emitted no buy"
  in
  let nonce =
    match Zmail.Isp.pending_buy_nonce kernel with
    | Some n -> n
    | None -> Alcotest.fail "no pending buy"
  in
  let serve () =
    match Zmail.Federation.on_isp_message t ~from_isp:0 sealed with
    | Zmail.Federation.Reply signed -> signed
    | Zmail.Federation.Rejected r -> Alcotest.fail (Zmail.Bank.reject_to_string r)
  in
  let lost = serve () in
  let retransmitted = serve () in
  (match
     Zmail.Wire.verify_from_bank (Zmail.Federation.public_key t ~bank:0) retransmitted
   with
  | Some (Zmail.Wire.Buy_reply { nonce = n; accepted = true }) when n = nonce -> ()
  | _ -> Alcotest.fail "expected the accepted buy reply for the pending nonce");
  Alcotest.(check bool) "the cached reply, byte for byte" true (lost = retransmitted);
  Alcotest.(check int) "debited once" (1_000_000 - 500)
    (Zmail.Federation.account_balance t ~isp:0);
  ignore (Zmail.Isp.on_bank_message kernel retransmitted);
  Alcotest.(check bool) "pending buy cleared" true
    (Zmail.Isp.pending_buy_nonce kernel = None);
  Alcotest.(check int) "e-penny growth equals the federation's liability"
    (Zmail.Federation.total_outstanding t)
    (Zmail.Isp.total_epennies kernel - initial)

let test_clearing () =
  let _, t = make ~n_banks:2 ~n_isps:2 () in
  (* ISP 0 (bank 0) buys 1000; ISP 1 (bank 1) sells 400 it received in
     the mail: bank 1 pays out cash it never collected. *)
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:0
       (seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 1000; nonce = 10L })));
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:1
       (seal_to t ~isp:1 (Zmail.Wire.Sell { amount = 400; nonce = 11L })));
  Alcotest.(check int) "total outstanding" 600 (Zmail.Federation.total_outstanding t);
  Alcotest.(check int) "bank 0 position" 700 (Zmail.Federation.position t ~bank:0);
  Alcotest.(check int) "bank 1 position" (-700) (Zmail.Federation.position t ~bank:1);
  (match settle t with
  | [ (0, 1, 700) ] -> ()
  | transfers -> Alcotest.failf "unexpected transfers (%d)" (List.length transfers));
  Alcotest.(check int) "positions cleared (0)" 0 (Zmail.Federation.position t ~bank:0);
  Alcotest.(check int) "positions cleared (1)" 0 (Zmail.Federation.position t ~bank:1);
  Alcotest.(check (list (triple int int int))) "settle is idempotent" []
    (settle t);
  (* Outstanding is unchanged by clearing: it is a liability, not cash. *)
  Alcotest.(check int) "outstanding preserved" 600 (Zmail.Federation.total_outstanding t)

let test_clearing_three_banks () =
  let _, t = make ~n_banks:3 ~n_isps:3 () in
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:0
       (seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 900; nonce = 20L })));
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:1
       (seal_to t ~isp:1 (Zmail.Wire.Sell { amount = 300; nonce = 21L })));
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:2
       (seal_to t ~isp:2 (Zmail.Wire.Sell { amount = 300; nonce = 22L })));
  let transfers = settle t in
  Alcotest.(check bool) "some transfers" true (transfers <> []);
  for b = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "bank %d cleared" b) 0
      (Zmail.Federation.position t ~bank:b)
  done;
  (* Money conservation: transfers net to zero by construction, and the
     sum of positions was zero before and after. *)
  let net =
    List.fold_left (fun acc (_, _, amount) -> acc + amount) 0 transfers
  in
  Alcotest.(check bool) "transfers positive" true (net > 0)

let test_global_audit_with_kernels () =
  (* Four real ISP kernels homed to two banks; cross traffic including
     a cheater; the federation audit must catch it across bank lines. *)
  let n_isps = 4 in
  let compliant = Array.make n_isps true in
  let r = rng () in
  let cfg, t = make ~n_banks:2 ~n_isps () in
  ignore cfg;
  let kernels =
    Array.init n_isps (fun i ->
        let bank = Zmail.Federation.home_of t ~isp:i in
        let base =
          Zmail.Isp.default_config ~index:i ~n_isps ~n_users:2 ~compliant
            ~bank_public:(Zmail.Federation.public_key t ~bank)
        in
        let cfg =
          if i = 3 then { base with Zmail.Isp.cheat = Zmail.Isp.Fake_receives 2 }
          else base
        in
        Zmail.Isp.create r cfg)
  in
  (* Honest cross traffic between every ordered pair. *)
  Array.iteri
    (fun i sender ->
      Array.iteri
        (fun j receiver ->
          if i <> j then begin
            ignore (Zmail.Isp.charge_send sender ~sender:0 ~dest_isp:j);
            ignore (Zmail.Isp.accept_delivery receiver ~from_isp:i ~rcpt:1)
          end)
        kernels)
    kernels;
  (* The cheat applies at end of day. *)
  Array.iter Zmail.Isp.end_of_day kernels;
  (* Audit choreography through the federation. *)
  let requests = Zmail.Federation.start_audit t in
  Alcotest.(check int) "requests for all" n_isps (List.length requests);
  Alcotest.(check bool) "in progress" true (Zmail.Federation.audit_in_progress t);
  let result = ref None in
  List.iter
    (fun (i, signed) ->
      Alcotest.(check bool) "kernel accepts its home bank's signature" true
        (Zmail.Isp.on_bank_message kernels.(i) signed = Zmail.Isp.Start_snapshot_timer);
      let reply = Zmail.Isp.thaw kernels.(i) in
      match Zmail.Federation.on_audit_reply t ~from_isp:i reply with
      | Ok (Some r) -> result := Some r
      | Ok None -> ()
      | Error e -> Alcotest.fail e)
    requests;
  match !result with
  | Some r ->
      Alcotest.(check bool) "violations found" true (r.Zmail.Bank.violations <> []);
      Alcotest.(check (list int)) "cross-bank cheater caught" [ 3 ] r.Zmail.Bank.suspects
  | None -> Alcotest.fail "audit did not complete"

let test_audit_reply_validation () =
  let _, t = make () in
  (* No audit running. *)
  let reply =
    seal_to t ~isp:0 (Zmail.Wire.Audit_reply { isp = 0; seq = 0; credit = [||] })
  in
  (match Zmail.Federation.on_audit_reply t ~from_isp:0 reply with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reply outside an audit must fail");
  ignore (Zmail.Federation.start_audit t);
  (* Misattributed reply: ISP 1 sends a row claiming to be ISP 0. *)
  let forged =
    seal_to t ~isp:1 (Zmail.Wire.Audit_reply { isp = 0; seq = 0; credit = [||] })
  in
  (match Zmail.Federation.on_audit_reply t ~from_isp:1 forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "misattributed reply must fail");
  (* Audit replies must not go through the buy/sell entry point. *)
  match Zmail.Federation.on_isp_message t ~from_isp:0 reply with
  | Zmail.Federation.Rejected _ -> ()
  | Zmail.Federation.Reply _ -> Alcotest.fail "wrong entry point must reject"

let test_single_bank_degenerate () =
  (* n_banks = 1 behaves like the plain protocol: positions are always
     zero. *)
  let _, t = make ~n_banks:1 ~n_isps:3 () in
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:0
       (seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 777; nonce = 30L })));
  Alcotest.(check int) "position zero" 0 (Zmail.Federation.position t ~bank:0);
  Alcotest.(check (list (triple int int int))) "nothing to settle" []
    (settle t)

let test_config_validation () =
  Alcotest.(check bool) "bad home map" true
    (try
       ignore
         (Zmail.Federation.create (rng ())
            { (Zmail.Federation.default_config ~n_banks:2 ~n_isps:2) with
              Zmail.Federation.home = [| 0; 5 |] });
       false
     with Invalid_argument _ -> true)

(* Mesh-routed clearing ([Zmail.Clearing]): [n_banks] banks pushed off
   the mean by cash [transfers] (from, to, amount), so a settlement
   round plans real transfers. *)
let clearing_over ?(n_banks = 3) ?(transfers = [ (0, 1, 900); (1, 2, 300) ])
    ?(taps = []) plan ?retry_timeout () =
  let engine = Sim.Engine.create ~seed:3 () in
  let _, fed = make ~n_banks ~n_isps:(2 * n_banks) () in
  List.iter (transfer fed) transfers;
  let mesh =
    Sim.Fault.Mesh.create ~default:plan ~n_nodes:n_banks engine
      (Sim.Rng.create 8)
  in
  let clr = Zmail.Clearing.create ~taps ?retry_timeout ~engine ~mesh fed in
  let plan = Zmail.Clearing.settle_round clr in
  (engine, mesh, clr, List.length plan)

(* A held transfer is delivered after its hold, not re-drawn: with
   every copy delayed (never dropped) and the retry timeout above the
   longest hold, each transfer and each ack crosses the mesh once. *)
let test_clearing_delayed_delivers () =
  let engine, mesh, clr, transfers =
    clearing_over
      (Sim.Fault.plan ~delay_prob:1.0 ~delay_max:30. ())
      ~retry_timeout:60. ()
  in
  Alcotest.(check bool) "the round plans transfers" true (transfers > 0);
  Sim.Engine.run engine;
  Alcotest.(check int) "every transfer acked" 0 (Zmail.Clearing.pending_count clr);
  Alcotest.(check int) "carry drained" 0 (Zmail.Clearing.pending_amount clr);
  Alcotest.(check int) "one transfer + one ack each, zero resends"
    (2 * transfers) (Zmail.Clearing.messages clr);
  Alcotest.(check int) "one mesh verdict per message" (2 * transfers)
    (Sim.Fault.Mesh.attempts mesh);
  Alcotest.(check int) "every copy held once" (2 * transfers)
    (Sim.Fault.Mesh.link_delayed mesh)

(* The clearing resend schedule, pinned: over a dead mesh a transfer
   is sent at 0 and then after 600, 1200, 2400, 4800 and 7200 s (the
   cap), 7200 s apart from then on. *)
let test_clearing_retry_schedule () =
  let engine, _, clr, transfers =
    clearing_over (Sim.Fault.plan ~drop:1.0 ()) ()
  in
  let sent_by t =
    Sim.Engine.run ~until:t engine;
    Zmail.Clearing.messages clr / transfers
  in
  Alcotest.(check (list int)) "sends per transfer"
    [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.map sent_by [ 599.; 600.; 1800.; 4200.; 9000.; 16200.; 23400. ]);
  Alcotest.(check int) "cap holds" 7 (sent_by 30599.)

(* Clearing drains at federation scale over a lossy mesh (10% drop,
   20% delay): a cash ring with growing stakes displaces every bank
   from the mean, so the plan is dense. *)
let test_clearing_lossy_drains () =
  List.iter
    (fun n_banks ->
      let engine, _, clr, transfers =
        clearing_over ~n_banks
          ~transfers:
            (List.init n_banks (fun b ->
                 (b, (b + 1) mod n_banks, 1000 * (b + 1))))
          (Sim.Fault.plan ~drop:0.10 ~delay_prob:0.20 ~delay_max:30. ())
          ~retry_timeout:60. ()
      in
      let check what = Printf.sprintf "%d banks: %s" n_banks what in
      Alcotest.(check bool) (check "the round plans transfers") true
        (transfers > 0);
      Sim.Engine.run engine;
      Alcotest.(check int) (check "every transfer acked") 0
        (Zmail.Clearing.pending_count clr);
      Alcotest.(check int) (check "carry drained") 0
        (Zmail.Clearing.pending_amount clr))
    [ 4; 16 ]

(* A tap on every directed link between 4 banks, one behaviour at a
   time, over a 30%-drop mesh (so retransmissions re-cross the taps):
   whatever the taps forge, replay, hold or drop, every transfer lands
   exactly once — positions reach the mean, money is exact — and the
   taps did act. *)
let test_clearing_tapped () =
  let module BW = Zmail.Adversary.Bank_wire in
  List.iter
    (fun behavior ->
      let n_banks = 4 in
      let taps =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if a = b then None
                else
                  Some ((a, b), BW.create (Sim.Rng.create ((10 * a) + b)) behavior))
              (List.init n_banks Fun.id))
          (List.init n_banks Fun.id)
      in
      let engine, _, clr, transfers =
        clearing_over ~n_banks ~taps
          ~transfers:
            (List.init n_banks (fun b -> (b, (b + 1) mod n_banks, 1000 * (b + 1))))
          (Sim.Fault.plan ~drop:0.3 ()) ~retry_timeout:60. ()
      in
      let fed = Zmail.Clearing.federation clr in
      let money = Zmail.Federation.total_money fed in
      let check what = Printf.sprintf "%s: %s" (BW.name behavior) what in
      Alcotest.(check bool) (check "the round plans transfers") true (transfers > 0);
      Sim.Engine.run engine;
      Alcotest.(check int) (check "every transfer acked") 0
        (Zmail.Clearing.pending_count clr);
      Alcotest.(check int) (check "drift and plan applied once each")
        (n_banks + transfers)
        (Zmail.Federation.stats fed).Zmail.Federation.transfers_applied;
      for b = 0 to n_banks - 1 do
        Alcotest.(check int) (check (Printf.sprintf "bank %d at the mean" b)) 0
          (Zmail.Federation.position fed ~bank:b)
      done;
      Alcotest.(check int) (check "money exact") money (Zmail.Federation.total_money fed);
      let acted =
        List.fold_left
          (fun acc (_, tap) ->
            acc + BW.forged tap + BW.replayed tap + BW.delayed tap + BW.dropped tap)
          0 taps
      in
      Alcotest.(check bool) (check "the taps acted") true (acted > 0))
    [ BW.Forge_garbage 0.5; BW.Replay_captured 0.5; BW.Reorder (0.5, 30.);
      BW.Drop_selective (BW.Clearing_msg, 0.5) ]

let () =
  Alcotest.run "federation"
    [
      ( "banking",
        [
          Alcotest.test_case "homing" `Quick test_homing;
          Alcotest.test_case "buy at home bank" `Quick test_buy_at_home_bank;
          Alcotest.test_case "foreign bank rejected" `Quick test_foreign_bank_rejected;
          Alcotest.test_case "replay answered from cache" `Quick
            test_replay_answered_from_cache;
          Alcotest.test_case "lost reply: retransmit answered from cache" `Quick
            test_lost_reply_retransmit;
        ] );
      ( "clearing",
        [
          Alcotest.test_case "two banks" `Quick test_clearing;
          Alcotest.test_case "three banks" `Quick test_clearing_three_banks;
          Alcotest.test_case "single bank degenerate" `Quick test_single_bank_degenerate;
          Alcotest.test_case "held transfer delivered, not re-drawn" `Quick
            test_clearing_delayed_delivers;
          Alcotest.test_case "retry schedule" `Quick test_clearing_retry_schedule;
          Alcotest.test_case "lossy mesh drains at 4 and 16 banks" `Quick
            test_clearing_lossy_drains;
          Alcotest.test_case "tapped links land every transfer once" `Quick
            test_clearing_tapped;
        ] );
      ( "audit",
        [
          Alcotest.test_case "global audit with kernels" `Quick
            test_global_audit_with_kernels;
          Alcotest.test_case "reply validation" `Quick test_audit_reply_validation;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
    ]
