(* Integration tests: the assembled Zmail world — ISP kernels over real
   SMTP sessions, bank links, audits, mailing lists, workloads. *)

let make ?(n_isps = 2) ?(users = 4) ?(f = fun c -> c) () =
  Zmail.World.create (f (Zmail.World.default_config ~n_isps ~users_per_isp:users))

let balance w ~isp ~user =
  Zmail.Ledger.balance (Zmail.Isp.ledger (Zmail.World.isp w isp)) ~user

let test_paid_delivery_end_to_end () =
  let w = make () in
  (match Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 1) ~subject:"hi" () with
  | Zmail.World.Submitted `Paid -> ()
  | _ -> Alcotest.fail "expected a paid submission");
  Zmail.World.run_until_quiet w;
  (* Sender paid one e-penny; recipient earned it. *)
  Alcotest.(check int) "sender debited" 99 (balance w ~isp:0 ~user:0);
  Alcotest.(check int) "recipient credited" 101 (balance w ~isp:1 ~user:1);
  (* The message really crossed an SMTP session and sits in the inbox
     with the payment header. *)
  let inbox =
    Smtp.Mailbox.messages
      (Smtp.Mta.mailboxes (Zmail.World.mta w 1))
      (Zmail.World.address w ~isp:1 ~user:1)
  in
  (match inbox with
  | [ m ] ->
      Alcotest.(check (option int)) "payment header" (Some 1) (Smtp.Message.payment m);
      Alcotest.(check bool) "received header from the MTA" true
        (Smtp.Message.header m "Received" <> None)
  | l -> Alcotest.failf "expected 1 message, got %d" (List.length l));
  Alcotest.(check bool) "conservation" true (Zmail.World.conservation_holds w);
  Alcotest.(check int) "credit antisymmetry" 0
    ((Zmail.Isp.credit_vector (Zmail.World.isp w 0)).(1)
    + (Zmail.Isp.credit_vector (Zmail.World.isp w 1)).(0))

(* Minor words per paid send, end to end: [send_email] (charge, one
   message record, envelope, MTA submission and its scheduled event)
   and the delivery event [Engine.run] fires (the session fast path,
   the Received stamp, the inbound filter and the receiver's
   settlement), on a warmed-up 3-ISP world with the online checkers
   attached and no audits.  The trace events the checkers consume are
   part of it.  Measured 277 words when a send copied its message at
   every step and built closures, 163 with one record and none; the
   bound is that plus 8%. *)
let paid_send_words = 176.

let test_paid_send_allocation () =
  let users = 50 in
  let w = make ~n_isps:3 ~users ~f:(fun c -> { c with Zmail.World.retain_mail = false }) () in
  ignore (Zmail.World.attach_invariants w);
  let engine = Zmail.World.engine w in
  let round k0 n =
    for k = k0 to k0 + n - 1 do
      match
        Zmail.World.send_email w ~from:(k mod 3, k / 3 mod users)
          ~to_:((k + 1) mod 3, (k / 3 + 7) mod users) ()
      with
      | Zmail.World.Submitted `Paid -> ()
      | _ -> Alcotest.failf "send %d was not a paid submission" k
    done;
    Sim.Engine.run engine
  in
  round 0 150;
  let n = 150 in
  let before = Gc.minor_words () in
  round 150 n;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  let delivered =
    List.fold_left
      (fun acc i -> acc + (Smtp.Mta.stats (Zmail.World.mta w i)).Smtp.Mta.delivered)
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "all delivered" 300 delivered;
  if words > paid_send_words then
    Alcotest.failf "a paid send: %.1f words (bound %.0f)" words paid_send_words

(* A header value that would smuggle a stamp is refused before the
   sender is charged, like [Address.v] refuses bad parts. *)
let test_send_rejects_header_injection () =
  let w = make () in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let refused header send =
    match send () with
    | _ -> Alcotest.failf "%s accepted" header
    | exception Invalid_argument msg ->
        Alcotest.(check bool) ("names " ^ header ^ ": " ^ msg) true (contains msg header)
  in
  refused "Subject" (fun () ->
      Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 1)
        ~subject:"x\r\nX-Zmail-Payment: 5" ());
  refused "In-Reply-To" (fun () ->
      Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 1)
        ~in_reply_to:"<1@x>\nX-Zmail-Payment: 5" ());
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "nothing charged" 100 (balance w ~isp:0 ~user:0);
  Alcotest.(check int) "nothing delivered" 0
    (Smtp.Mailbox.count
       (Smtp.Mta.mailboxes (Zmail.World.mta w 1))
       (Zmail.World.address w ~isp:1 ~user:1))

let test_local_delivery_accounting () =
  let w = make () in
  ignore (Zmail.World.send_email w ~from:(0, 0) ~to_:(0, 1) ());
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "sender debited" 99 (balance w ~isp:0 ~user:0);
  Alcotest.(check int) "recipient credited" 101 (balance w ~isp:0 ~user:1);
  Alcotest.(check int) "no inter-ISP credit" 0
    (Array.fold_left ( + ) 0 (Zmail.Isp.credit_vector (Zmail.World.isp w 0)))

let noncompliant_world ?(f = fun c -> c) () =
  make ~n_isps:3
    ~f:(fun c -> f { c with Zmail.World.compliant = [| true; true; false |] })
    ()

let test_noncompliant_mail_free () =
  let w = noncompliant_world () in
  (match Zmail.World.send_email w ~from:(0, 0) ~to_:(2, 0) () with
  | Zmail.World.Submitted `Free -> ()
  | _ -> Alcotest.fail "expected free submission to non-compliant");
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "no charge" 100 (balance w ~isp:0 ~user:0);
  Alcotest.(check int) "delivered at non-compliant MTA" 1
    (Smtp.Mailbox.count
       (Smtp.Mta.mailboxes (Zmail.World.mta w 2))
       (Zmail.World.address w ~isp:2 ~user:0))

let test_unpaid_policy_discard () =
  let w = noncompliant_world ~f:(fun c -> { c with Zmail.World.unpaid_policy = Zmail.World.Unpaid_discard }) () in
  (* Mail from the non-compliant ISP 2 into compliant ISP 0. *)
  ignore (Zmail.World.send_email w ~from:(2, 0) ~to_:(0, 0) ~spam:true ());
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "discarded" 1 (Zmail.World.counters w).Zmail.World.unpaid_discarded;
  Alcotest.(check int) "inbox empty" 0
    (Smtp.Mailbox.count
       (Smtp.Mta.mailboxes (Zmail.World.mta w 0))
       (Zmail.World.address w ~isp:0 ~user:0));
  Alcotest.(check int) "no payment to recipient" 100 (balance w ~isp:0 ~user:0)

let test_unpaid_policy_deliver () =
  let w = noncompliant_world () in
  ignore (Zmail.World.send_email w ~from:(2, 0) ~to_:(0, 0) ~spam:true ());
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "delivered but unpaid" 1
    (Zmail.World.counters w).Zmail.World.spam_delivered;
  Alcotest.(check int) "recipient not paid" 100 (balance w ~isp:0 ~user:0)

let test_unpaid_policy_filter () =
  (* §5: unpaid mail must pass a spam filter; paid mail bypasses it.
     Train a Bayes filter and wire it in as the policy. *)
  let filter = Baselines.Bayes_filter.create () in
  Baselines.Bayes_filter.train_all filter
    (Econ.Corpus.generate (Sim.Rng.create 17)
       { Econ.Corpus.default_params with Econ.Corpus.n = 1500 });
  let policy =
    Zmail.World.Unpaid_filter
      { score = Baselines.Bayes_filter.spam_probability filter; threshold = 0.9 }
  in
  let w = noncompliant_world ~f:(fun c -> { c with Zmail.World.unpaid_policy = policy }) () in
  (* Spammy unpaid mail from the non-compliant ISP: filtered out. *)
  ignore
    (Zmail.World.send_email w ~from:(2, 0) ~to_:(0, 0) ~subject:"free viagra winner"
       ~body:"free pills lottery winner casino prize offer cash bonus" ~spam:true ());
  (* Hammy unpaid mail: passes the filter. *)
  ignore
    (Zmail.World.send_email w ~from:(2, 1) ~to_:(0, 0) ~subject:"meeting agenda"
       ~body:"please review the attached project report before the deadline" ());
  (* Spammy but PAID mail from a compliant ISP: never filtered. *)
  ignore
    (Zmail.World.send_email w ~from:(1, 0) ~to_:(0, 0) ~subject:"free viagra winner"
       ~body:"free pills lottery winner casino prize offer cash bonus" ~spam:true ());
  Zmail.World.run_until_quiet w;
  let c = Zmail.World.counters w in
  Alcotest.(check int) "spammy unpaid filtered" 1 c.Zmail.World.unpaid_discarded;
  Alcotest.(check int) "hammy unpaid delivered" 1 c.Zmail.World.ham_delivered;
  Alcotest.(check int) "paid spam bypasses the filter" 1 c.Zmail.World.spam_delivered;
  Alcotest.(check int) "inbox has the two delivered messages" 2
    (Smtp.Mailbox.count
       (Smtp.Mta.mailboxes (Zmail.World.mta w 0))
       (Zmail.World.address w ~isp:0 ~user:0))

let test_balance_exhaustion_and_topup () =
  (* Tiny balances, no topup: the second send is blocked. *)
  let w =
    make
      ~f:(fun c ->
        {
          c with
          Zmail.World.auto_topup = None;
          customize_isp = (fun _ k -> { k with Zmail.Isp.initial_balance = 1 });
        })
      ()
  in
  ignore (Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) ());
  (match Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) () with
  | Zmail.World.Rejected Zmail.Ledger.Insufficient_balance -> ()
  | _ -> Alcotest.fail "expected a balance rejection");
  Alcotest.(check int) "counted" 1 (Zmail.World.counters w).Zmail.World.blocked_balance;
  (* Same setup with topup: the user buys from the pool and sends. *)
  let w2 =
    make
      ~f:(fun c ->
        {
          c with
          Zmail.World.auto_topup = Some 10;
          customize_isp = (fun _ k -> { k with Zmail.Isp.initial_balance = 1 });
        })
      ()
  in
  ignore (Zmail.World.send_email w2 ~from:(0, 0) ~to_:(1, 0) ());
  (match Zmail.World.send_email w2 ~from:(0, 0) ~to_:(1, 0) () with
  | Zmail.World.Submitted `Paid -> ()
  | _ -> Alcotest.fail "expected topup then paid send");
  Zmail.World.run_until_quiet w2;
  Alcotest.(check bool) "conservation with topup" true
    (Zmail.World.conservation_holds w2)

let test_audit_clean_under_traffic () =
  let w = make ~n_isps:3 ~users:3 () in
  (* A burst of cross traffic, fully delivered. *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then
        for u = 0 to 2 do
          ignore (Zmail.World.send_email w ~from:(i, u) ~to_:(j, u) ())
        done
    done
  done;
  Zmail.World.run_until_quiet w;
  Zmail.World.trigger_audit w;
  Zmail.World.run_until_quiet w;
  match Zmail.World.audit_results w with
  | [ result ] ->
      Alcotest.(check int) "no violations" 0 (List.length result.Zmail.Bank.violations);
      Alcotest.(check (list int)) "no suspects" [] result.Zmail.Bank.suspects;
      Alcotest.(check bool) "credits reset" true
        (Array.for_all (fun v -> v = 0) (Zmail.Isp.credit_vector (Zmail.World.isp w 0)))
  | l -> Alcotest.failf "expected 1 audit, got %d" (List.length l)

let test_audit_detects_fake_receives () =
  let w =
    make ~n_isps:3 ~users:3
      ~f:(fun c ->
        {
          c with
          Zmail.World.compliant = [| true; true; true |];
          customize_isp =
            (fun i k ->
              if i = 1 then { k with Zmail.Isp.cheat = Zmail.Isp.Fake_receives 5 } else k);
        })
      ()
  in
  (* Honest traffic plus the daily cheat. *)
  ignore (Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) ());
  ignore (Zmail.World.send_email w ~from:(2, 0) ~to_:(1, 1) ());
  Zmail.World.run_days w 1.5;
  Zmail.World.trigger_audit w;
  Zmail.World.run_until_quiet w;
  match Zmail.World.audit_results w with
  | [ result ] ->
      Alcotest.(check bool) "violations found" true
        (List.length result.Zmail.Bank.violations >= 2);
      Alcotest.(check (list int)) "cheater fingered" [ 1 ] result.Zmail.Bank.suspects
  | l -> Alcotest.failf "expected 1 audit, got %d" (List.length l)

let test_snapshot_defers_and_flushes () =
  let w = make () in
  Zmail.World.trigger_audit w;
  (* Let the request arrive (100 ms link) but stay inside the freeze. *)
  Sim.Engine.run ~until:1. (Zmail.World.engine w);
  Alcotest.(check bool) "frozen" true (Zmail.Isp.frozen (Zmail.World.isp w 0));
  (match Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) () with
  | Zmail.World.Deferred_snapshot -> ()
  | _ -> Alcotest.fail "expected a deferred send");
  Zmail.World.run_until_quiet w;
  (* The deferred message was flushed at thaw and delivered. *)
  Alcotest.(check int) "delivered after thaw" 99 (balance w ~isp:0 ~user:0);
  Alcotest.(check int) "deferred counted" 1
    (Zmail.World.counters w).Zmail.World.deferred_sends;
  let delay = Zmail.World.deferral_delay w in
  Alcotest.(check int) "one deferral measured" 1 (Sim.Stats.Summary.count delay);
  (* Waited out the remainder of the 10-minute freeze. *)
  Alcotest.(check bool) "delay below freeze duration" true
    (Sim.Stats.Summary.max delay <= 600.);
  Alcotest.(check bool) "delay positive" true (Sim.Stats.Summary.max delay > 0.);
  match Zmail.World.audit_results w with
  | [ result ] ->
      Alcotest.(check int) "audit still clean" 0
        (List.length result.Zmail.Bank.violations)
  | _ -> Alcotest.fail "audit should have completed"

let test_periodic_audits () =
  let w =
    make ~f:(fun c -> { c with Zmail.World.audit_period = Some (6. *. Sim.Engine.hour) }) ()
  in
  Zmail.World.run_days w 1.01;
  (* 4 audit rounds per day. *)
  Alcotest.(check int) "four audits" 4 (List.length (Zmail.World.audit_results w));
  List.iter
    (fun (r : Zmail.Bank.audit_result) ->
      Alcotest.(check int) "clean" 0 (List.length r.Zmail.Bank.violations))
    (Zmail.World.audit_results w)

let test_mailing_list_round_trip () =
  let w = make ~n_isps:2 ~users:6 () in
  let ls = Zmail.World.host_list w ~isp:0 ~user:0 ~list_id:"dev-list" in
  List.iter
    (fun (i, u) -> Zmail.Listserv.subscribe ls (Zmail.World.address w ~isp:i ~user:u))
    [ (0, 1); (0, 2); (1, 1); (1, 2); (1, 3) ];
  let submitted = Zmail.World.post_to_list w ls ~body:"release announcement" in
  Alcotest.(check int) "all expansions submitted" 5 submitted;
  Zmail.World.run_until_quiet w;
  (* Every subscriber got the post... *)
  Alcotest.(check int) "subscriber inbox" 1
    (Smtp.Mailbox.count
       (Smtp.Mta.mailboxes (Zmail.World.mta w 1))
       (Zmail.World.address w ~isp:1 ~user:2));
  (* ...and every ack came back: the distributor is net flat. *)
  Alcotest.(check int) "acks generated" 5 (Zmail.World.counters w).Zmail.World.acks_generated;
  Alcotest.(check int) "all refunds" 5 (Zmail.Listserv.epennies_refunded ls);
  Alcotest.(check int) "distributor net zero" 0 (Zmail.Listserv.net_cost ls);
  Alcotest.(check int) "distributor balance restored" 100 (balance w ~isp:0 ~user:0);
  (* Acks were intercepted, not delivered to the distributor's inbox. *)
  Alcotest.(check int) "inbox holds no acks" 0
    (Smtp.Mailbox.count
       (Smtp.Mta.mailboxes (Zmail.World.mta w 0))
       (Zmail.World.address w ~isp:0 ~user:0));
  Alcotest.(check bool) "conservation" true (Zmail.World.conservation_holds w)

let test_mailing_list_dead_subscribers () =
  (* Subscribers at a non-compliant ISP never ack (no compliant ISP to
     generate the acknowledgment): the distributor eats the cost and
     pruning cleans the roster — §5's database hygiene. *)
  let w = noncompliant_world ~f:(fun c -> { c with Zmail.World.users_per_isp = 6 }) () in
  let ls = Zmail.World.host_list w ~isp:0 ~user:0 ~list_id:"mixed" in
  List.iter
    (fun (i, u) -> Zmail.Listserv.subscribe ls (Zmail.World.address w ~isp:i ~user:u))
    [ (0, 1); (1, 1); (2, 1); (2, 2) ];
  for _ = 1 to 2 do
    ignore (Zmail.World.post_to_list w ls ~body:"post");
    Zmail.World.run_until_quiet w;
    Zmail.Listserv.note_post_complete ls
  done;
  Alcotest.(check int) "only live subscribers acked" 4
    (Zmail.Listserv.epennies_refunded ls);
  Alcotest.(check int) "net cost from dead addresses" 4 (Zmail.Listserv.net_cost ls);
  let removed = Zmail.Listserv.prune ls ~max_missed:2 in
  Alcotest.(check int) "dead addresses pruned" 2 (List.length removed);
  Alcotest.(check int) "live roster remains" 2 (Zmail.Listserv.subscriber_count ls)

let test_user_traffic_roughly_balances () =
  let w = make ~n_isps:2 ~users:30 ~f:(fun c -> { c with Zmail.World.seed = 5 }) () in
  Zmail.World.attach_user_traffic w ();
  Zmail.World.run_days w 5.;
  let c = Zmail.World.counters w in
  Alcotest.(check bool) "traffic flowed" true (c.Zmail.World.ham_delivered > 200);
  Alcotest.(check int) "no spam in this world" 0 c.Zmail.World.spam_delivered;
  (* Zero-sum: whatever the ISPs hold beyond the initial issue must be
     exactly what the bank sold them, plus paid mail in flight at this
     instant (a handful of messages given millisecond latencies). *)
  let total =
    Zmail.Isp.total_epennies (Zmail.World.isp w 0)
    + Zmail.Isp.total_epennies (Zmail.World.isp w 1)
  in
  let residue =
    total - Zmail.World.initial_epennies w
    - Zmail.Bank.outstanding_epennies (Zmail.World.bank w)
  in
  Alcotest.(check bool) "in-flight residue non-negative" true (residue >= 0);
  Alcotest.(check bool) "in-flight residue small" true (residue < 50)

let test_bulk_sender_drains () =
  let w =
    make ~n_isps:2 ~users:10
      ~f:(fun c ->
        {
          c with
          Zmail.World.auto_topup = None;
          customize_isp = (fun _ k -> { k with Zmail.Isp.initial_balance = 20; daily_limit = 10_000 });
        })
      ()
  in
  Zmail.World.attach_bulk_sender w ~isp:0 ~user:0 ~per_day:5000. ();
  Zmail.World.run_days w 1.;
  (* The spammer ran out of e-pennies after 20 messages. *)
  Alcotest.(check int) "balance exhausted" 0 (balance w ~isp:0 ~user:0);
  let c = Zmail.World.counters w in
  Alcotest.(check bool) "most sends blocked" true (c.Zmail.World.blocked_balance > 1000);
  Alcotest.(check bool) "only the funded spam got through" true
    (c.Zmail.World.spam_delivered <= 20)

let test_limit_warning_surfaces () =
  let w =
    make
      ~f:(fun c ->
        { c with Zmail.World.customize_isp = (fun _ k -> { k with Zmail.Isp.daily_limit = 3 }) })
      ()
  in
  for _ = 1 to 5 do
    ignore (Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) ())
  done;
  Alcotest.(check int) "one warning" 1 (Zmail.World.counters w).Zmail.World.limit_warnings;
  Alcotest.(check int) "blocked at limit" 2
    (Zmail.World.counters w).Zmail.World.blocked_limit

let test_threading_headers () =
  let w = make () in
  ignore
    (Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0)
       ~in_reply_to:"<42@mx.isp1.example>" ());
  Zmail.World.run_until_quiet w;
  match
    Smtp.Mailbox.messages
      (Smtp.Mta.mailboxes (Zmail.World.mta w 1))
      (Zmail.World.address w ~isp:1 ~user:0)
  with
  | [ m ] ->
      Alcotest.(check (option string)) "threaded" (Some "<42@mx.isp1.example>")
        (Smtp.Message.header m "In-Reply-To");
      Alcotest.(check bool) "has its own id" true (Smtp.Message.message_id m <> None)
  | _ -> Alcotest.fail "expected one message"

let test_soak_week_with_audits () =
  (* A week of mixed life: 6 ISPs (one non-compliant), organic traffic
     with replies, a bulk sender, audits twice a day.  Everything must
     stay consistent. *)
  let w =
    make ~n_isps:6 ~users:40
      ~f:(fun c ->
        {
          c with
          Zmail.World.seed = 77;
          compliant = [| true; true; true; true; true; false |];
          audit_period = Some (12. *. Sim.Engine.hour);
        })
      ()
  in
  Zmail.World.attach_user_traffic w ();
  Zmail.World.attach_bulk_sender w ~isp:0 ~user:0 ~per_day:1500. ();
  Zmail.World.run_days w 7.;
  let c = Zmail.World.counters w in
  Alcotest.(check bool) "substantial traffic" true (c.Zmail.World.ham_delivered > 5_000);
  let audits = Zmail.World.audit_results w in
  Alcotest.(check bool) "about 14 audits" true
    (List.length audits >= 12 && List.length audits <= 15);
  List.iter
    (fun (r : Zmail.Bank.audit_result) ->
      Alcotest.(check int) "every audit clean" 0 (List.length r.Zmail.Bank.violations))
    audits;
  (* The conservation residue is only paid mail in flight right now. *)
  let total = ref 0 in
  for i = 0 to 4 do
    total := !total + Zmail.Isp.total_epennies (Zmail.World.isp w i)
  done;
  let residue =
    !total - Zmail.World.initial_epennies w
    - Zmail.Bank.outstanding_epennies (Zmail.World.bank w)
  in
  Alcotest.(check bool) "residue is a few in-flight messages" true
    (residue >= 0 && residue < 100);
  (* The bulk sender was throttled by the daily limit. *)
  Alcotest.(check bool) "bulk sender throttled" true (c.Zmail.World.blocked_limit > 1_000)

(* ------------------------------------------------------------------ *)
(* Unreliable bank links, crashes, recovery                            *)
(* ------------------------------------------------------------------ *)

(* Force §4.3 pool activity: start below [minavail] so the first pool
   check emits a Buy over the (faulty) bank link. *)
let pool_hungry k =
  { k with Zmail.Isp.initial_avail = 100; minavail = 200; maxavail = 100_000 }

let test_faulty_link_converges () =
  let plan =
    Sim.Fault.plan ~drop:0.2 ~duplicate:0.2 ~delay_prob:0.2 ~delay_max:3.
      ~corrupt:0.1 ()
  in
  let w =
    make
      ~f:(fun c ->
        {
          c with
          Zmail.World.bank_fault = plan;
          audit_period = Some (6. *. Sim.Engine.hour);
          customize_isp = (fun _ k -> pool_hungry k);
        })
      ()
  in
  for u = 0 to 3 do
    ignore (Zmail.World.send_email w ~from:(0, u) ~to_:(1, u) ());
    ignore (Zmail.World.send_email w ~from:(1, u) ~to_:(0, u) ())
  done;
  Zmail.World.run_days w 1.01;
  Zmail.World.run_until_quiet w;
  (* The link really misbehaved... *)
  let m = Zmail.World.mesh w in
  Alcotest.(check bool) "faults injected" true
    (Sim.Fault.Mesh.link_dropped m + Sim.Fault.Mesh.duplicated m
     + Sim.Fault.Mesh.corrupted m
    > 0);
  (* ...yet retransmission converged every exchange: no money leaked,
     every audit round ran to completion with nobody falsely accused. *)
  Alcotest.(check bool) "conservation" true (Zmail.World.conservation_holds w);
  Alcotest.(check bool) "audits completed" true
    (List.length (Zmail.World.audit_results w) >= 3);
  List.iter
    (fun (r : Zmail.Bank.audit_result) ->
      Alcotest.(check (list int)) "no false accusations" [] r.Zmail.Bank.suspects)
    (Zmail.World.audit_results w)

let test_duplicated_buy_reply_pins_e11 () =
  (* Every bank message is duplicated in transit.  The hardened kernel
     absorbs the second Buy_reply; the paper-literal kernel re-applies
     it and mints pool e-pennies out of thin air — the E11 deviation,
     pinned here through the fault layer. *)
  let run hardened =
    let w =
      make
        ~f:(fun c ->
          {
            c with
            Zmail.World.bank_fault = Sim.Fault.plan ~duplicate:1.0 ();
            customize_isp =
              (fun _ k ->
                { (pool_hungry k) with Zmail.Isp.replay_hardening = hardened });
          })
        ()
    in
    Zmail.World.run_days w 0.2;
    Zmail.World.run_until_quiet w;
    ( Zmail.World.epenny_residue w,
      Sim.Fault.Mesh.duplicated (Zmail.World.mesh w) )
  in
  let residue_hard, dups_hard = run true in
  let residue_ablated, dups_ablated = run false in
  Alcotest.(check bool) "duplicates flowed" true (dups_hard > 0 && dups_ablated > 0);
  Alcotest.(check int) "hardened kernel absorbs duplicates" 0 residue_hard;
  Alcotest.(check bool) "ablated kernel double-applies" true (residue_ablated > 0)

(* [bank_fault] is shorthand for mesh overrides on the ISP<->bank links
   only: explicit [mesh_links] entries win, and ISP<->ISP mail never
   sees the plan. *)
let test_bank_fault_is_bank_links () =
  let dead = Sim.Fault.plan ~drop:1.0 () in
  let w =
    make
      ~f:(fun c ->
        {
          c with
          Zmail.World.bank_fault = dead;
          mesh_links =
            [ ((0, 2), Sim.Fault.reliable); ((2, 0), Sim.Fault.reliable) ];
          customize_isp = (fun _ k -> pool_hungry k);
        })
      ()
  in
  ignore (Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) ());
  Zmail.World.run_days w 0.1;
  Alcotest.(check int) "mail crosses the mesh untouched" 101
    (balance w ~isp:1 ~user:0);
  Alcotest.(check bool) "overridden bank link settles the buy" true
    (Zmail.Isp.pending_buy_nonce (Zmail.World.isp w 0) = None);
  Alcotest.(check bool) "bank_fault link never settles" true
    (Zmail.Isp.pending_buy_nonce (Zmail.World.isp w 1) <> None)

(* The retransmit timeouts World actually schedules, read back from the
   trace: bank exchanges back off 5, 10, ..., 640, then 900 s; an audit
   request first waits out the freeze (600 + 5 s), then 900 s. *)
let retransmit_timeouts ?(customize = fun _ k -> k) ?(start = ignore) ~links
    ~until () =
  let tracer = Obs.Trace.create ~capacity:100_000 () in
  let w =
    make
      ~f:(fun c ->
        {
          c with
          Zmail.World.mesh_links = links;
          customize_isp = customize;
          tracer = Some tracer;
        })
      ()
  in
  start w;
  Sim.Engine.run ~until (Zmail.World.engine w);
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      match e.payload with
      | Obs.Trace.World_retransmit { timeout } -> Some timeout
      | _ -> None)
    (Obs.Trace.events tracer)

let test_bank_retry_schedule () =
  let timeouts =
    retransmit_timeouts
      ~customize:(fun _ k -> pool_hungry k)
      ~links:[ ((0, 2), Sim.Fault.plan ~drop:1.0 ()) ]
      ~until:(4. *. Sim.Engine.hour) ()
  in
  Alcotest.(check (list (float 0.))) "buy resend schedule"
    [ 5.; 10.; 20.; 40.; 80.; 160.; 320.; 640.; 900.; 900. ]
    (List.filteri (fun i _ -> i < 10) timeouts)

let test_audit_request_retry_schedule () =
  let timeouts =
    retransmit_timeouts ~start:Zmail.World.trigger_audit
      ~links:[ ((2, 0), Sim.Fault.plan ~drop:1.0 ()) ]
      ~until:2406. ()
  in
  Alcotest.(check (list (float 0.))) "audit request resend schedule"
    [ 605.; 900.; 900. ] timeouts

(* Crash recovery replays each victim's write-ahead log, so a world
   that crashes needs a disk; a reliable one loses exactly the
   unflushed tail. *)
let make_durable () =
  make ~f:(fun c -> { c with Zmail.World.disk = Some Sim.Disk.reliable }) ()

let test_crash_and_recovery () =
  let w = make_durable () in
  Zmail.World.crash_isp w ~isp:1 ~downtime:600.;
  Alcotest.(check bool) "down" false (Zmail.World.isp_up w 1);
  (match Zmail.World.send_email w ~from:(1, 0) ~to_:(0, 0) () with
  | Zmail.World.Failed_down -> ()
  | _ -> Alcotest.fail "expected Failed_down from a crashed ISP");
  (* Paid mail INTO the crashed ISP: the origin MTA retries (60 s then
     120 s), exhausts its attempts before the 600 s recovery and
     bounces — and the bounce hook refunds the sender's e-penny. *)
  (match Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) () with
  | Zmail.World.Submitted `Paid -> ()
  | _ -> Alcotest.fail "expected a paid submission");
  Zmail.World.run_until_quiet w;
  Alcotest.(check bool) "recovered" true (Zmail.World.isp_up w 1);
  let link = Zmail.World.link_stats w in
  let v c = Sim.Stats.Counter.value c in
  Alcotest.(check int) "one crash" 1 (v link.Zmail.World.crashes);
  Alcotest.(check int) "one recovery" 1 (v link.Zmail.World.recoveries);
  Alcotest.(check int) "down submission counted" 1 (v link.Zmail.World.sends_failed_down);
  Alcotest.(check int) "bounced payment refunded" 1 (v link.Zmail.World.bounce_refunds);
  Alcotest.(check int) "sender made whole" 100 (balance w ~isp:0 ~user:0);
  Alcotest.(check bool) "conservation" true (Zmail.World.conservation_holds w);
  (* The recovered ISP sends and receives again. *)
  (match Zmail.World.send_email w ~from:(1, 0) ~to_:(0, 1) () with
  | Zmail.World.Submitted `Paid -> ()
  | _ -> Alcotest.fail "expected a paid send after recovery");
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "delivered after recovery" 101 (balance w ~isp:0 ~user:1);
  Alcotest.(check bool) "conservation after recovery" true
    (Zmail.World.conservation_holds w)

let test_crash_mid_freeze_audit_completes () =
  (* Crash an ISP inside its snapshot freeze: the thaw timer is
     abandoned, the bank retransmits the audit request after the
     timeout, the recovered ISP re-freezes, and the audit completes. *)
  let w = make_durable () in
  Zmail.World.trigger_audit w;
  Sim.Engine.run ~until:1. (Zmail.World.engine w);
  Alcotest.(check bool) "frozen" true (Zmail.Isp.frozen (Zmail.World.isp w 0));
  Zmail.World.crash_isp w ~isp:0 ~downtime:120.;
  Zmail.World.run_until_quiet w;
  Alcotest.(check bool) "thawed" false (Zmail.Isp.frozen (Zmail.World.isp w 0));
  Alcotest.(check bool) "request retransmitted" true
    (Sim.Stats.Counter.value (Zmail.World.link_stats w).Zmail.World.retransmits > 0);
  match Zmail.World.audit_results w with
  | [ r ] ->
      Alcotest.(check int) "audit completed clean" 0
        (List.length r.Zmail.Bank.violations)
  | l -> Alcotest.failf "expected 1 audit, got %d" (List.length l)

let test_crash_spanning_audit_epochs () =
  (* The distributed-snapshot hazard: an ISP that is down when an audit
     round starts snapshots later than its peers, so mail its
     already-thawed peers send meanwhile crosses the epoch boundary.
     The recovery handshake (re-issued audit request before the ISP
     reopens) plus the epoch stamp on paid mail (early receives are
     buffered for the next billing period) must keep every round clean
     — without them the §4.4 check falsely accuses the crashed ISP. *)
  let w = make_durable () in
  let engine = Zmail.World.engine w in
  Zmail.World.crash_isp w ~isp:0 ~downtime:1200.;
  Zmail.World.trigger_audit w;
  Sim.Engine.run ~until:1150. engine;
  Alcotest.(check int) "peer thawed into epoch 1" 1
    (Zmail.Isp.audit_seq (Zmail.World.isp w 1));
  (* Paid mail from the thawed peer toward the still-down ISP: the MTA
     retry lands it just after recovery, while ISP 0 is re-frozen for
     the still-open round and still in epoch 0. *)
  (match Zmail.World.send_email w ~from:(1, 0) ~to_:(0, 0) () with
  | Zmail.World.Submitted `Paid -> ()
  | _ -> Alcotest.fail "expected a paid send");
  Sim.Engine.run ~until:1300. engine;
  Alcotest.(check bool) "handshake re-froze the recovered ISP" true
    (Zmail.Isp.frozen (Zmail.World.isp w 0));
  Alcotest.(check int) "cross-epoch receive buffered" 1
    (Zmail.Isp.early_receives (Zmail.World.isp w 0));
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "delivered" 101 (balance w ~isp:0 ~user:0);
  (* The buffered receive surfaces in the next period, matching the
     sender's epoch-1 record: both rounds verify clean. *)
  Zmail.World.trigger_audit w;
  Zmail.World.run_until_quiet w;
  let audits = Zmail.World.audit_results w in
  Alcotest.(check int) "both audits completed" 2 (List.length audits);
  List.iter
    (fun (r : Zmail.Bank.audit_result) ->
      Alcotest.(check (list int)) "no false accusations" [] r.Zmail.Bank.suspects)
    audits;
  Alcotest.(check bool) "conservation" true (Zmail.World.conservation_holds w)

(* A refused crash must leave no trace: both components stay up, no
   crash is counted, no recovery is scheduled, and mail still flows. *)
let check_crash_refused w ~downtime =
  let link = Zmail.World.link_stats w in
  let v c = Sim.Stats.Counter.value c in
  let pending () = Sim.Engine.pending (Zmail.World.engine w) in
  let pending0 = pending () in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted downtime %g" what downtime
    | exception Invalid_argument _ -> ()
  in
  refused "crash_isp" (fun () -> Zmail.World.crash_isp w ~isp:0 ~downtime);
  refused "crash_bank" (fun () -> Zmail.World.crash_bank w ~downtime);
  Alcotest.(check bool) "isp still up" true (Zmail.World.isp_up w 0);
  Alcotest.(check bool) "bank still up" true (Zmail.World.bank_up w);
  Alcotest.(check int) "no isp crash counted" 0 (v link.Zmail.World.crashes);
  Alcotest.(check int) "no bank crash counted" 0 (v link.Zmail.World.bank_crashes);
  Alcotest.(check int) "no recovery scheduled" pending0 (pending ());
  (match Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 0) () with
  | Zmail.World.Submitted `Paid -> ()
  | _ -> Alcotest.fail "expected a paid send after the refused crash");
  Zmail.World.run_until_quiet w;
  Alcotest.(check int) "delivered" 101 (balance w ~isp:1 ~user:0)

let test_crash_without_disk_refused () =
  check_crash_refused (make ()) ~downtime:600.

let test_crash_downtime_refused () =
  List.iter
    (fun downtime -> check_crash_refused (make_durable ()) ~downtime)
    [ Float.nan; 0.; -1.; Float.neg_infinity; Float.infinity ]

let test_determinism_under_faults () =
  (* Same seed + same fault plan ⇒ byte-identical metric summaries,
     including the fault and retransmission counters: faults draw from
     their own seeded stream, so chaos is replayable. *)
  let summary w =
    let c = Zmail.World.counters w in
    let m = Zmail.World.mesh w in
    let link = Zmail.World.link_stats w in
    let v x = Sim.Stats.Counter.value x in
    Printf.sprintf
      "ham=%d spam=%d blocked=%d/%d deferred=%d acks=%d \
       faults:s=%d,del=%d,dr=%d,dup=%d,lat=%d,cor=%d,out=%d,part=%d \
       link:retx=%d,rej=%d epennies:total=%d,out=%d b00=%d b17=%d"
      c.Zmail.World.ham_delivered c.Zmail.World.spam_delivered
      c.Zmail.World.blocked_balance c.Zmail.World.blocked_limit
      c.Zmail.World.deferred_sends c.Zmail.World.acks_generated
      (Sim.Fault.Mesh.attempts m) (Sim.Fault.Mesh.delivered m)
      (Sim.Fault.Mesh.link_dropped m) (Sim.Fault.Mesh.duplicated m)
      (Sim.Fault.Mesh.link_delayed m) (Sim.Fault.Mesh.corrupted m)
      (Sim.Fault.Mesh.outage_dropped m) (Sim.Fault.Mesh.partition_dropped m)
      (v link.Zmail.World.retransmits) (v link.Zmail.World.bank_rejects)
      (Zmail.Isp.total_epennies (Zmail.World.isp w 0)
      + Zmail.Isp.total_epennies (Zmail.World.isp w 1))
      (Zmail.Bank.outstanding_epennies (Zmail.World.bank w))
      (balance w ~isp:0 ~user:0) (balance w ~isp:1 ~user:7)
  in
  let run () =
    let w =
      make ~n_isps:2 ~users:10
        ~f:(fun c ->
          {
            c with
            Zmail.World.seed = 42;
            audit_period = Some (6. *. Sim.Engine.hour);
            customize_isp = (fun _ k -> pool_hungry k);
            bank_fault =
              Sim.Fault.plan ~drop:0.1 ~duplicate:0.1 ~delay_prob:0.1
                ~delay_max:2. ~corrupt:0.05
                ~outages:[ (10. *. Sim.Engine.hour, 11. *. Sim.Engine.hour) ]
                ();
          })
        ()
    in
    Zmail.World.attach_user_traffic w ();
    Zmail.World.run_days w 2.;
    summary w
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "identical summaries" a b

(* ------------------------------------------------------------------ *)
(* Mesh partitions                                                     *)
(* ------------------------------------------------------------------ *)

(* A partition severing ISP 2 (group 1) from everyone else: cross-group
   paid mail sent inside the window dies on the dead link and is
   refunded, same-group mail is untouched, and after the heal money is
   conserved with nothing minted or leaked. *)
let test_partition_bounces_and_refunds () =
  let day = Sim.Engine.day in
  let groups = [| 0; 0; 1; 0 |] in  (* 3 ISPs + the bank (node 3) *)
  let w =
    make ~n_isps:3 ~users:2
      ~f:(fun c ->
        {
          c with
          Zmail.World.partitions =
            [ Sim.Fault.Mesh.partition ~start:(0.1 *. day) ~stop:(0.5 *. day)
                ~groups ];
        })
      ()
  in
  let engine = Zmail.World.engine w in
  ignore
    (Sim.Engine.schedule_after engine ~delay:(0.2 *. day) (fun () ->
         (* Cross-group: must bounce and refund.  Same-group: must land. *)
         ignore (Zmail.World.send_email w ~from:(0, 0) ~to_:(2, 0) ());
         ignore (Zmail.World.send_email w ~from:(0, 1) ~to_:(1, 1) ())));
  Zmail.World.run_until_quiet w;
  let link = Zmail.World.link_stats w in
  let mesh = Zmail.World.mesh w in
  Alcotest.(check int) "same-group mail delivered" 1
    (Zmail.World.counters w).Zmail.World.ham_delivered;
  Alcotest.(check bool) "partition dropped attempts" true
    (Sim.Fault.Mesh.partition_dropped mesh > 0);
  Alcotest.(check int) "cross-group send refunded" 1
    (Sim.Stats.Counter.value link.Zmail.World.bounce_refunds);
  (* The refund reversed both ledger and credit legs: conservation
     holds and the sender is whole. *)
  Alcotest.(check bool) "conservation" true (Zmail.World.conservation_holds w);
  Alcotest.(check int) "sender refunded" 100 (balance w ~isp:0 ~user:0)

(* Audit rounds across a partition: the severed ISP is recorded absent
   by the half quorum (never suspected), and after the heal the late
   cumulative report reconciles with zero violations. *)
let test_partition_quorum_audit () =
  let hour = Sim.Engine.hour in
  let day = Sim.Engine.day in
  let groups = [| 0; 0; 1; 0 |] in
  let w =
    make ~n_isps:3 ~users:2
      ~f:(fun c ->
        {
          c with
          Zmail.World.audit_period = Some (6. *. hour);
          partitions =
            [ Sim.Fault.Mesh.partition ~start:(0.3 *. day) ~stop:(0.9 *. day)
                ~groups ];
        })
      ()
  in
  (* Cross traffic before the cut so every ISP has credit flows to
     report (including claims against the soon-severed ISP 2). *)
  for u = 0 to 1 do
    ignore (Zmail.World.send_email w ~from:(0, u) ~to_:(2, u) ());
    ignore (Zmail.World.send_email w ~from:(2, u) ~to_:(1, u) ());
    ignore (Zmail.World.send_email w ~from:(1, u) ~to_:(0, u) ())
  done;
  Zmail.World.run_days w 1.5;
  Zmail.World.run_until_quiet w;
  let audits = Zmail.World.audit_results w in
  let absences =
    List.fold_left (fun acc r -> acc + List.length r.Zmail.Bank.absent) 0 audits
  in
  Alcotest.(check bool) "some quorum rounds ran without ISP 2" true (absences > 0);
  List.iter
    (fun (r : Zmail.Bank.audit_result) ->
      Alcotest.(check (list int)) "no violations, no suspects, ever" []
        r.Zmail.Bank.suspects;
      Alcotest.(check int) "honest books reconcile across the heal" 0
        (List.length r.Zmail.Bank.violations);
      List.iter
        (fun a -> Alcotest.(check int) "only ISP 2 ever absent" 2 a)
        r.Zmail.Bank.absent)
    audits;
  Alcotest.(check int) "no rounds deferred under quorum" 0
    (Sim.Stats.Counter.value
       (Zmail.World.link_stats w).Zmail.World.audits_deferred);
  Alcotest.(check bool) "conservation" true (Zmail.World.conservation_holds w)

let test_partition_determinism () =
  (* Same seed + same partition schedule + lossy mesh ⇒ byte-identical
     outcomes including the mesh counters: chaos stays replayable with
     the mesh layer enabled (its stream is root-seeded, split from
     nothing the workload uses). *)
  let day = Sim.Engine.day in
  let summary w =
    let c = Zmail.World.counters w in
    let m = Zmail.World.mesh w in
    let link = Zmail.World.link_stats w in
    Printf.sprintf
      "ham=%d deferred=%d mesh:a=%d,d=%d,dr=%d,lat=%d,part=%d refunds=%d \
       audits=%d epennies=%d out=%d"
      c.Zmail.World.ham_delivered c.Zmail.World.deferred_sends
      (Sim.Fault.Mesh.attempts m) (Sim.Fault.Mesh.delivered m)
      (Sim.Fault.Mesh.link_dropped m) (Sim.Fault.Mesh.link_delayed m)
      (Sim.Fault.Mesh.partition_dropped m)
      (Sim.Stats.Counter.value link.Zmail.World.bounce_refunds)
      (List.length (Zmail.World.audit_results w))
      (Zmail.Isp.total_epennies (Zmail.World.isp w 0)
      + Zmail.Isp.total_epennies (Zmail.World.isp w 1)
      + Zmail.Isp.total_epennies (Zmail.World.isp w 2))
      (Zmail.Bank.outstanding_epennies (Zmail.World.bank w))
  in
  let run () =
    let w =
      make ~n_isps:3 ~users:6
        ~f:(fun c ->
          {
            c with
            Zmail.World.seed = 77;
            audit_period = Some (6. *. Sim.Engine.hour);
            mesh_default =
              Sim.Fault.plan ~drop:0.05 ~delay_prob:0.1 ~delay_max:2. ();
            partitions =
              [ Sim.Fault.Mesh.partition ~start:(0.3 *. day)
                  ~stop:(0.7 *. day) ~groups:[| 0; 0; 1; 0 |] ];
          })
        ()
    in
    Zmail.World.attach_user_traffic w ();
    Zmail.World.run_days w 1.5;
    summary w
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "identical summaries with partitions" a b

(* End-to-end Byzantine detection: an adversary understating its debts
   is implicated at the first audit whose row it altered, and no honest
   ISP is ever convicted by the strict-majority rule. *)
let test_adversary_detected_in_world () =
  let hour = Sim.Engine.hour in
  let adv = Zmail.Adversary.create (Zmail.Adversary.Understate_owed 5) in
  let w =
    make ~n_isps:3 ~users:3
      ~f:(fun c -> { c with Zmail.World.audit_period = Some (6. *. hour) })
      ()
  in
  Zmail.World.register_adversary w ~isp:2 adv;
  (* Heavy one-way flow into ISP 2: it owes both peers, so understating
     breaks antisymmetry against a strict majority (2 of 2 peers). *)
  for u = 0 to 2 do
    for _ = 1 to 3 do
      ignore (Zmail.World.send_email w ~from:(0, u) ~to_:(2, u) ());
      ignore (Zmail.World.send_email w ~from:(1, u) ~to_:(2, u) ())
    done
  done;
  Zmail.World.run_days w 0.6;
  Zmail.World.run_until_quiet w;
  Alcotest.(check bool) "reports were tampered" true
    (Zmail.Adversary.tampered adv > 0);
  let audits = Zmail.World.audit_results w in
  Alcotest.(check bool) "audits ran" true (audits <> []);
  let flagged =
    List.exists (fun r -> List.mem 2 r.Zmail.Bank.suspects) audits
  in
  Alcotest.(check bool) "adversary convicted" true flagged;
  List.iter
    (fun (r : Zmail.Bank.audit_result) ->
      List.iter
        (fun s -> Alcotest.(check int) "only the adversary suspected" 2 s)
        r.Zmail.Bank.suspects)
    audits;
  (* Balance-neutral by construction: the tamper never moved money. *)
  Alcotest.(check int) "zero residue" 0 (Zmail.World.epenny_residue w)

let test_world_validation () =
  Alcotest.(check bool) "bad compliance map" true
    (try
       ignore
         (Zmail.World.create
            { (Zmail.World.default_config ~n_isps:2 ~users_per_isp:1) with
              Zmail.World.compliant = [| true |] });
       false
     with Invalid_argument _ -> true);
  let w = noncompliant_world () in
  Alcotest.(check bool) "kernel of non-compliant raises" true
    (try
       ignore (Zmail.World.isp w 2);
       false
     with Invalid_argument _ -> true);
  (match Zmail.World.locate w (Zmail.World.address w ~isp:1 ~user:2) with
  | Some (1, 2) -> ()
  | _ -> Alcotest.fail "locate failed");
  Alcotest.(check bool) "foreign address not located" true
    (Zmail.World.locate w (Smtp.Address.of_string_exn "x@nowhere.com") = None)

let () =
  Alcotest.run "world"
    [
      ( "mail",
        [
          Alcotest.test_case "paid delivery end to end" `Quick
            test_paid_delivery_end_to_end;
          Alcotest.test_case "header injection refused" `Quick
            test_send_rejects_header_injection;
          Alcotest.test_case "local accounting" `Quick test_local_delivery_accounting;
          Alcotest.test_case "non-compliant free" `Quick test_noncompliant_mail_free;
          Alcotest.test_case "unpaid discard" `Quick test_unpaid_policy_discard;
          Alcotest.test_case "unpaid deliver" `Quick test_unpaid_policy_deliver;
          Alcotest.test_case "unpaid filter" `Quick test_unpaid_policy_filter;
          Alcotest.test_case "exhaustion and topup" `Quick
            test_balance_exhaustion_and_topup;
          Alcotest.test_case "a paid send's allocation" `Quick test_paid_send_allocation;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean under traffic" `Quick test_audit_clean_under_traffic;
          Alcotest.test_case "detects fake receives" `Quick
            test_audit_detects_fake_receives;
          Alcotest.test_case "snapshot defers and flushes" `Quick
            test_snapshot_defers_and_flushes;
          Alcotest.test_case "periodic audits" `Quick test_periodic_audits;
        ] );
      ( "listserv",
        [
          Alcotest.test_case "round trip with acks" `Quick test_mailing_list_round_trip;
          Alcotest.test_case "dead subscribers" `Quick test_mailing_list_dead_subscribers;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "user traffic balances" `Slow
            test_user_traffic_roughly_balances;
          Alcotest.test_case "bulk sender drains" `Quick test_bulk_sender_drains;
          Alcotest.test_case "limit warnings" `Quick test_limit_warning_surfaces;
        ] );
      ( "structure",
        [
          Alcotest.test_case "validation and lookup" `Quick test_world_validation;
          Alcotest.test_case "threading headers" `Quick test_threading_headers;
        ] );
      ( "faults",
        [
          Alcotest.test_case "faulty link converges" `Slow test_faulty_link_converges;
          Alcotest.test_case "duplicated buy reply pins e11" `Quick
            test_duplicated_buy_reply_pins_e11;
          Alcotest.test_case "bank_fault is the bank links" `Quick
            test_bank_fault_is_bank_links;
          Alcotest.test_case "bank retry schedule" `Quick test_bank_retry_schedule;
          Alcotest.test_case "audit request retry schedule" `Quick
            test_audit_request_retry_schedule;
          Alcotest.test_case "crash and recovery" `Quick test_crash_and_recovery;
          Alcotest.test_case "crash mid-freeze" `Quick
            test_crash_mid_freeze_audit_completes;
          Alcotest.test_case "crash spanning audit epochs" `Quick
            test_crash_spanning_audit_epochs;
          Alcotest.test_case "crash without a disk refused" `Quick
            test_crash_without_disk_refused;
          Alcotest.test_case
            "crash with a NaN, non-positive or infinite downtime refused"
            `Quick test_crash_downtime_refused;
          Alcotest.test_case "determinism under faults" `Slow
            test_determinism_under_faults;
          Alcotest.test_case "partition bounces and refunds" `Quick
            test_partition_bounces_and_refunds;
          Alcotest.test_case "partition quorum audit" `Quick
            test_partition_quorum_audit;
          Alcotest.test_case "partition determinism" `Slow
            test_partition_determinism;
          Alcotest.test_case "adversary detected end to end" `Quick
            test_adversary_detected_in_world;
        ] );
      ( "soak",
        [ Alcotest.test_case "a week with audits" `Slow test_soak_week_with_audits ] );
    ]
