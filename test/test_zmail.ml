(* Tests for the Zmail core: ledgers, credit, wire, ISP and bank
   kernels, and the mailing-list distributor. *)

let rng () = Sim.Rng.create 31

(* ------------------------------------------------------------------ *)
(* Epenny                                                              *)
(* ------------------------------------------------------------------ *)

let test_epenny () =
  Alcotest.(check (float 1e-12)) "to_dollars" 0.05 (Zmail.Epenny.to_dollars 5);
  Alcotest.(check int) "check passes" 7 (Zmail.Epenny.check 7);
  Alcotest.(check bool) "check rejects negatives" true
    (try
       ignore (Zmail.Epenny.check (-1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Credit                                                              *)
(* ------------------------------------------------------------------ *)

let test_credit_vector () =
  let c = Zmail.Credit.create ~n:3 in
  Zmail.Credit.record_send c ~peer:1;
  Zmail.Credit.record_send c ~peer:1;
  Zmail.Credit.record_receive c ~peer:2;
  Alcotest.(check int) "peer 1" 2 (Zmail.Credit.get c 1);
  Alcotest.(check int) "peer 2" (-1) (Zmail.Credit.get c 2);
  Alcotest.(check int) "net flow" 1 (Array.fold_left ( + ) 0 (Zmail.Credit.snapshot c));
  let snap = Zmail.Credit.snapshot c in
  Zmail.Credit.reset_upto c ~seq:0;
  Alcotest.(check int) "reset" 0 (Zmail.Credit.get c 1);
  Alcotest.(check int) "snapshot unaffected" 2 snap.(1);
  (* A receive from a peer already one audit epoch ahead is buffered
     for the matching billing period, invisible until its reset. *)
  Zmail.Credit.record_receive_early c ~epoch:1 ~peer:0;
  Alcotest.(check int) "early receive not visible" 0 (Zmail.Credit.get c 0);
  Alcotest.(check int) "early pending" 1 (Zmail.Credit.early_pending c);
  Alcotest.(check int) "snapshot excludes early" 0 (Zmail.Credit.snapshot c).(0);
  Zmail.Credit.reset_upto c ~seq:0;
  Alcotest.(check int) "early folded into new period" (-1) (Zmail.Credit.get c 0);
  Alcotest.(check int) "buffer cleared" 0 (Zmail.Credit.early_pending c)

(* The epoch ladder behind partition-tolerant audits: receives may
   arrive several audit epochs ahead (the sender healed from a long
   partition), [report_upto ~seq] reports the cumulative row through
   epoch [seq], and [reset_upto ~seq] promotes exactly epoch [seq+1]
   while keeping later buckets buffered. *)
let test_credit_epoch_ladder () =
  (* [report_upto] as a dense vector over the three peers. *)
  let snapshot_upto c ~seq =
    let row = Array.make 3 0 in
    Array.iter (fun (peer, v) -> row.(peer) <- v) (Zmail.Credit.report_upto c ~seq);
    row
  in
  let c = Zmail.Credit.create ~n:3 in
  Zmail.Credit.record_send c ~peer:1;
  Zmail.Credit.record_receive_early c ~epoch:1 ~peer:2;
  Zmail.Credit.record_receive_early c ~epoch:3 ~peer:2;
  Zmail.Credit.record_receive_early c ~epoch:1 ~peer:0;
  (* Cumulative row through seq 0 sees only the current period... *)
  Alcotest.(check (array int)) "upto 0" [| 0; 1; 0 |]
    (snapshot_upto c ~seq:0);
  (* ...through seq 1 adds the epoch-1 bucket... *)
  Alcotest.(check (array int)) "upto 1" [| -1; 1; -1 |]
    (snapshot_upto c ~seq:1);
  (* ...and through seq 3 everything (epoch 2 is an empty rung). *)
  Alcotest.(check (array int)) "upto 3" [| -1; 1; -2 |]
    (snapshot_upto c ~seq:3);
  Alcotest.(check int) "pending counts all buckets" 3
    (Zmail.Credit.early_pending c);
  (* A multi-epoch reset (the healed ISP reported the cumulative row
     for seqs 0..1) drops the covered buckets and promotes epoch 2 —
     empty here — so epoch 3 stays buffered. *)
  Zmail.Credit.reset_upto c ~seq:1;
  Alcotest.(check (array int)) "post-reset current" [| 0; 0; 0 |]
    (Zmail.Credit.snapshot c);
  Alcotest.(check int) "epoch 3 still pending" 1 (Zmail.Credit.early_pending c);
  Zmail.Credit.reset_upto c ~seq:2;
  Alcotest.(check (array int)) "epoch 3 promoted" [| 0; 0; -1 |]
    (Zmail.Credit.snapshot c);
  Alcotest.(check int) "ladder drained" 0 (Zmail.Credit.early_pending c)

(* The late mirror of the ladder: a receive stamped with the round we
   already answered (the sender's audit request was delayed, so it
   charged the message before freezing) folds into the retained report
   row — returned so the kernel can re-send an amended reply — instead
   of lopsiding the open period.  Only the last-answered round is
   amendable; anything older, or an amend before any round closed,
   falls back to the ordinary receive path. *)
let test_credit_amend_receive () =
  let c = Zmail.Credit.create ~n:3 in
  let accept seen row =
    seen := Some (Array.copy row);
    true
  in
  let got = ref None in
  (* No round answered yet: nothing to amend, [deliver] never runs. *)
  Alcotest.(check bool) "no retained row" false
    (Zmail.Credit.amend_receive c ~epoch:0 ~peer:1 ~deliver:(accept got));
  Alcotest.(check bool) "deliver not called" true (!got = None);
  Zmail.Credit.record_send c ~peer:1;
  Zmail.Credit.record_send c ~peer:1;
  Zmail.Credit.record_send c ~peer:2;
  Zmail.Credit.reset_upto c ~seq:0;
  (* Late receive stamped round 0: the retained [(1,2);(2,1)] row is
     amended in place and handed to [deliver]. *)
  Alcotest.(check bool) "amend commits" true
    (Zmail.Credit.amend_receive c ~epoch:0 ~peer:1 ~deliver:(accept got));
  Alcotest.(check bool) "amended row" true (!got = Some [| (1, 1); (2, 1) |]);
  (* A rejected delivery (the bank's round already closed) reverts the
     fold: the retained row is unchanged for the next amendment. *)
  Alcotest.(check bool) "rejected delivery reverts" false
    (Zmail.Credit.amend_receive c ~epoch:0 ~peer:2 ~deliver:(fun _ -> false));
  (* The next amend sees the un-reverted state and zeroes the peer-2
     cell, which drops from the canonical sparse form. *)
  Alcotest.(check bool) "amend after revert" true
    (Zmail.Credit.amend_receive c ~epoch:0 ~peer:2 ~deliver:(accept got));
  Alcotest.(check bool) "zero cell dropped" true (!got = Some [| (1, 1) |]);
  (* The open period is untouched by amendments. *)
  Alcotest.(check (array int)) "open period clean" [| 0; 0; 0 |]
    (Zmail.Credit.snapshot c);
  (* Wrong epoch: more than one round behind is not amendable. *)
  Alcotest.(check bool) "only last round amendable" false
    (Zmail.Credit.amend_receive c ~epoch:1 ~peer:1 ~deliver:(fun _ -> true));
  (* The retained row is durable state: a codec round-trip preserves
     amendability byte-for-byte. *)
  let w = Persist.Codec.W.create () in
  Zmail.Credit.encode_state w c;
  let bytes = Persist.Codec.W.contents w in
  let fresh = Zmail.Credit.create ~n:3 in
  Zmail.Credit.restore_state (Persist.Codec.R.of_string bytes) fresh;
  Alcotest.(check bool) "amendable after restore" true
    (Zmail.Credit.amend_receive fresh ~epoch:0 ~peer:2 ~deliver:(accept got));
  Alcotest.(check bool) "restored row amended" true
    (!got = Some [| (1, 1); (2, -1) |]);
  (* Closing the next round replaces the retained row: round 0 is no
     longer amendable. *)
  Zmail.Credit.reset_upto c ~seq:1;
  Alcotest.(check bool) "older round retired" false
    (Zmail.Credit.amend_receive c ~epoch:0 ~peer:1 ~deliver:(fun _ -> true))

let test_audit_consistent () =
  let reported =
    [| [| 0; 3; -1 |]; [| -3; 0; 2 |]; [| 1; -2; 0 |] |]
  in
  let compliant = [| true; true; true |] in
  Alcotest.(check int) "no violations" 0
    (List.length (Dense_verify.verify ~reported ~compliant))

let test_audit_detects_mismatch () =
  let reported =
    [| [| 0; 3; -1 |]; [| -2; 0; 2 |]; [| 1; -2; 0 |] |]
  in
  let compliant = [| true; true; true |] in
  match Dense_verify.verify ~reported ~compliant with
  | [ v ] ->
      Alcotest.(check int) "pair a" 0 v.Zmail.Credit.Audit.isp_a;
      Alcotest.(check int) "pair b" 1 v.Zmail.Credit.Audit.isp_b;
      Alcotest.(check int) "discrepancy" 1 v.Zmail.Credit.Audit.discrepancy;
      Alcotest.(check (list int)) "implicated" [ 0; 1 ]
        (Zmail.Credit.Audit.implicated [ v ])
  | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l)

let test_audit_ignores_noncompliant () =
  let reported = [| [| 0; 5 |]; [| 9; 0 |] |] in
  let compliant = [| true; false |] in
  Alcotest.(check int) "non-compliant rows skipped" 0
    (List.length (Dense_verify.verify ~reported ~compliant))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let all_payloads =
  [
    Zmail.Wire.Buy { amount = 500; nonce = 42L };
    Zmail.Wire.Buy_reply { nonce = 42L; accepted = true };
    Zmail.Wire.Buy_reply { nonce = 7L; accepted = false };
    Zmail.Wire.Sell { amount = 100; nonce = 1L };
    Zmail.Wire.Sell_reply { nonce = 1L };
    Zmail.Wire.Audit_request { seq = 3 };
    Zmail.Wire.Audit_reply { isp = 2; seq = 3; credit = [| (0, 1); (1, -2) |] };
    Zmail.Wire.Audit_reply { isp = 5; seq = 4; credit = [||] };
  ]

let test_wire_roundtrip () =
  List.iter
    (fun p ->
      match Zmail.Wire.decode (Zmail.Wire.encode p) with
      | Ok p' ->
          Alcotest.(check bool) (Zmail.Wire.encode p) true
            (p = p')
      | Error e -> Alcotest.fail e)
    all_payloads

let test_wire_decode_garbage () =
  List.iter
    (fun s ->
      match Zmail.Wire.decode s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "buy"; "buy x 1"; "buy -5 1"; "reply 1 2 1,x,3"; "withdraw 5 1" ]

let test_wire_seal_roundtrip () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  List.iter
    (fun p ->
      let sealed = Zmail.Wire.seal_for_bank r pk p in
      match Zmail.Wire.open_at_bank sk sealed with
      | Some p' ->
          Alcotest.(check bool) "roundtrip" true (p = p')
      | None -> Alcotest.fail "unseal failed")
    all_payloads

let test_wire_seal_tamper () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let sealed = Zmail.Wire.seal_for_bank r pk (Zmail.Wire.Buy { amount = 1; nonce = 1L }) in
  Alcotest.(check bool) "tampered envelope rejected" true
    (Zmail.Wire.open_at_bank sk (Toycrypto.Seal.flip_bit sealed) = None)

let test_wire_signature () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let signed = Zmail.Wire.sign_by_bank sk (Zmail.Wire.Audit_request { seq = 1 }) in
  (match Zmail.Wire.verify_from_bank pk signed with
  | Some (Zmail.Wire.Audit_request { seq }) -> Alcotest.(check int) "payload" 1 seq
  | Some _ | None -> Alcotest.fail "verification failed");
  (* Forging a different payload under the same signature fails. *)
  let forged = { signed with Zmail.Wire.payload = Zmail.Wire.Audit_request { seq = 2 } } in
  Alcotest.(check bool) "forgery rejected" true
    (Zmail.Wire.verify_from_bank pk forged = None);
  (* A different keypair cannot have produced it. *)
  let pk2, _ = Toycrypto.Rsa.generate r in
  Alcotest.(check bool) "wrong key rejected" true
    (Zmail.Wire.verify_from_bank pk2 signed = None)

let wire_roundtrip_prop =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:200
    QCheck.(quad (int_bound 100000) int64 (int_bound 50) (list_of_size (Gen.int_range 1 6) (pair (int_bound 9999) (int_range (-100) 100))))
    (fun (amount, nonce, seq, credit) ->
      (* Wire rows need not be canonical (a tampered encoder may emit
         zeros or unsorted cells); the codec must round-trip whatever
         the cell list says. *)
      let payloads =
        [
          Zmail.Wire.Buy { amount; nonce };
          Zmail.Wire.Sell { amount; nonce };
          Zmail.Wire.Audit_request { seq };
          Zmail.Wire.Audit_reply { isp = 0; seq; credit = Array.of_list credit };
        ]
      in
      List.for_all
        (fun p ->
          match Zmail.Wire.decode (Zmail.Wire.encode p) with
          | Ok p' -> p = p'
          | Error _ -> false)
        payloads)

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let ledger () =
  Zmail.Ledger.create ~n_users:3 ~initial_balance:2 ~initial_account:10
    ~daily_limit:2 ~initial_avail:100

let test_ledger_send_receive () =
  let l = ledger () in
  Alcotest.(check bool) "send ok" true (Zmail.Ledger.debit_send l ~user:0 = Ok ());
  Alcotest.(check int) "debited" 1 (Zmail.Ledger.balance l ~user:0);
  Alcotest.(check int) "sent counted" 1 (Zmail.Ledger.sent_today l ~user:0);
  Zmail.Ledger.credit_receive l ~user:1;
  Alcotest.(check int) "credited" 3 (Zmail.Ledger.balance l ~user:1);
  Alcotest.(check int) "conservation (avail fixed)" 100 (Zmail.Ledger.avail l);
  Alcotest.(check int) "total moved not created" (2 + 2 + 2 + 100)
    (Zmail.Ledger.total_epennies l)

let test_ledger_blocks () =
  let l =
    Zmail.Ledger.create ~n_users:1 ~initial_balance:3 ~initial_account:0
      ~daily_limit:2 ~initial_avail:0
  in
  Alcotest.(check bool) "1st" true (Zmail.Ledger.debit_send l ~user:0 = Ok ());
  Alcotest.(check bool) "2nd" true (Zmail.Ledger.debit_send l ~user:0 = Ok ());
  Alcotest.(check bool) "3rd hits limit" true
    (Zmail.Ledger.debit_send l ~user:0 = Error Zmail.Ledger.Daily_limit_reached);
  Zmail.Ledger.reset_daily l;
  Alcotest.(check bool) "new day, last penny spendable" true
    (Zmail.Ledger.debit_send l ~user:0 = Ok ());
  (* Balance is 0 now: blocked for the other reason. *)
  Alcotest.(check bool) "balance exhausted" true
    (Zmail.Ledger.debit_send l ~user:0 = Error Zmail.Ledger.Insufficient_balance)

(* §4.1's [i = j] branch as the ISP runs it: debit the sender, then
   credit the recipient. *)
let transfer_local l ~sender ~rcpt =
  match Zmail.Ledger.debit_send l ~user:sender with
  | Error _ as e -> e
  | Ok () ->
      Zmail.Ledger.credit_receive l ~user:rcpt;
      Ok ()

let test_ledger_local_transfer () =
  let l = ledger () in
  Alcotest.(check bool) "transfer" true (transfer_local l ~sender:0 ~rcpt:2 = Ok ());
  Alcotest.(check int) "sender" 1 (Zmail.Ledger.balance l ~user:0);
  Alcotest.(check int) "rcpt" 3 (Zmail.Ledger.balance l ~user:2)

let test_ledger_user_buy_sell () =
  let l = ledger () in
  Alcotest.(check bool) "buy 5" true (Zmail.Ledger.user_buy l ~user:0 ~amount:5 = Ok ());
  Alcotest.(check int) "balance" 7 (Zmail.Ledger.balance l ~user:0);
  Alcotest.(check int) "account" 5 (Zmail.Ledger.account l ~user:0);
  Alcotest.(check int) "avail" 95 (Zmail.Ledger.avail l);
  Alcotest.(check bool) "buy too much" true
    (Result.is_error (Zmail.Ledger.user_buy l ~user:0 ~amount:6));
  Alcotest.(check bool) "sell 3" true (Zmail.Ledger.user_sell l ~user:0 ~amount:3 = Ok ());
  Alcotest.(check int) "balance after sell" 4 (Zmail.Ledger.balance l ~user:0);
  Alcotest.(check int) "avail restored" 98 (Zmail.Ledger.avail l);
  Alcotest.(check bool) "sell too much" true
    (Result.is_error (Zmail.Ledger.user_sell l ~user:0 ~amount:100))

let test_ledger_pool_bounds () =
  let l = ledger () in
  Zmail.Ledger.add_pool l 10;
  Alcotest.(check int) "pool grew" 110 (Zmail.Ledger.avail l);
  Alcotest.(check bool) "take ok" true (Zmail.Ledger.take_pool l 110 = Ok ());
  Alcotest.(check bool) "take too much" true (Result.is_error (Zmail.Ledger.take_pool l 1))

(* The one daily limit is counted per user: a user at it blocks only
   that user's sends. *)
let test_ledger_per_user_limit () =
  let l = ledger () in
  Zmail.Ledger.credit_receive l ~user:1;
  for _ = 1 to 2 do
    Alcotest.(check bool) "under the limit" true (Zmail.Ledger.debit_send l ~user:1 = Ok ())
  done;
  Alcotest.(check bool) "limit blocks" true
    (Zmail.Ledger.debit_send l ~user:1 = Error Zmail.Ledger.Daily_limit_reached);
  Alcotest.(check bool) "others unaffected" true (Zmail.Ledger.debit_send l ~user:0 = Ok ())

let ledger_conservation_prop =
  QCheck.Test.make ~name:"ledger conserves e-pennies under random ops" ~count:100
    QCheck.(pair small_nat (list (int_bound 5)))
    (fun (seed, ops) ->
      let r = Sim.Rng.create seed in
      let l =
        Zmail.Ledger.create ~n_users:4 ~initial_balance:10 ~initial_account:50
          ~daily_limit:1000 ~initial_avail:100
      in
      let initial = Zmail.Ledger.total_epennies l in
      List.iter
        (fun op ->
          let user = Sim.Rng.int r 4 in
          match op with
          | 0 -> ignore (Zmail.Ledger.debit_send l ~user)
          | 1 -> Zmail.Ledger.credit_receive l ~user
          | 2 -> ignore (Zmail.Ledger.user_buy l ~user ~amount:(Sim.Rng.int r 5))
          | 3 -> ignore (Zmail.Ledger.user_sell l ~user ~amount:(Sim.Rng.int r 5))
          | 4 -> ignore (transfer_local l ~sender:user ~rcpt:((user + 1) mod 4))
          | _ -> Zmail.Ledger.reset_daily l)
        ops;
      (* debit_send removes a penny (it rides in the message); credit
         adds one.  Count them to check nothing else leaks. *)
      let sent =
        List.fold_left (fun acc u -> acc + Zmail.Ledger.sent_today l ~user:u) 0 [0;1;2;3]
      in
      ignore sent;
      (* buys/sells/transfers are internal moves; only debit/credit
         change the total, by exactly +-1 each. *)
      let total = Zmail.Ledger.total_epennies l in
      let debits = ref 0 and credits = ref 0 in
      ignore debits; ignore credits;
      (* Replay the op list to count the boundary crossings. *)
      let r2 = Sim.Rng.create seed in
      let l2 =
        Zmail.Ledger.create ~n_users:4 ~initial_balance:10 ~initial_account:50
          ~daily_limit:1000 ~initial_avail:100
      in
      let delta = ref 0 in
      List.iter
        (fun op ->
          let user = Sim.Rng.int r2 4 in
          match op with
          | 0 -> if Zmail.Ledger.debit_send l2 ~user = Ok () then decr delta
          | 1 -> Zmail.Ledger.credit_receive l2 ~user; incr delta
          | 2 -> ignore (Zmail.Ledger.user_buy l2 ~user ~amount:(Sim.Rng.int r2 5))
          | 3 -> ignore (Zmail.Ledger.user_sell l2 ~user ~amount:(Sim.Rng.int r2 5))
          | 4 -> ignore (transfer_local l2 ~sender:user ~rcpt:((user + 1) mod 4))
          | _ -> Zmail.Ledger.reset_daily l2)
        ops;
      total = initial + !delta)

(* ------------------------------------------------------------------ *)
(* ISP kernel                                                          *)
(* ------------------------------------------------------------------ *)

let make_bank_and_isp ?(n_isps = 3) ?(compliant = [| true; true; false |])
    ?(customize = fun c -> c) () =
  let r = rng () in
  let bank =
    Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps ~compliant)
  in
  let cfg =
    Zmail.Isp.default_config ~index:0 ~n_isps ~n_users:4 ~compliant
      ~bank_public:(Zmail.Bank.public_key bank)
  in
  (r, bank, Zmail.Isp.create r (customize cfg))

let test_isp_send_paid_remote () =
  let _, _, isp = make_bank_and_isp () in
  Alcotest.(check bool) "paid send" true
    (Zmail.Isp.charge_send isp ~sender:0 ~dest_isp:1 = Zmail.Isp.Sent_paid);
  Alcotest.(check int) "balance debited" 99
    (Zmail.Ledger.balance (Zmail.Isp.ledger isp) ~user:0);
  Alcotest.(check int) "credit bumped" 1 (Zmail.Isp.credit_vector isp).(1)

let test_isp_send_local_no_credit () =
  let _, _, isp = make_bank_and_isp () in
  Alcotest.(check bool) "paid local" true
    (Zmail.Isp.charge_send isp ~sender:0 ~dest_isp:0 = Zmail.Isp.Sent_paid);
  Alcotest.(check int) "no credit for self" 0 (Zmail.Isp.credit_vector isp).(0)

let test_isp_send_noncompliant_free () =
  let _, _, isp = make_bank_and_isp () in
  Alcotest.(check bool) "free send" true
    (Zmail.Isp.charge_send isp ~sender:0 ~dest_isp:2 = Zmail.Isp.Sent_free);
  Alcotest.(check int) "no debit" 100 (Zmail.Ledger.balance (Zmail.Isp.ledger isp) ~user:0)

let test_isp_receive () =
  let _, _, isp = make_bank_and_isp () in
  Alcotest.(check bool) "paid receive" true
    (Zmail.Isp.accept_delivery isp ~from_isp:1 ~rcpt:2 = `Paid);
  Alcotest.(check int) "credited" 101 (Zmail.Ledger.balance (Zmail.Isp.ledger isp) ~user:2);
  Alcotest.(check int) "credit decremented" (-1) (Zmail.Isp.credit_vector isp).(1);
  Alcotest.(check bool) "unpaid from non-compliant" true
    (Zmail.Isp.accept_delivery isp ~from_isp:2 ~rcpt:2 = `Unpaid);
  Alcotest.(check int) "no credit for unpaid" 101
    (Zmail.Ledger.balance (Zmail.Isp.ledger isp) ~user:2)

let test_isp_blocked_by_balance () =
  let _, _, isp =
    make_bank_and_isp ~customize:(fun c -> { c with Zmail.Isp.initial_balance = 1 }) ()
  in
  Alcotest.(check bool) "first ok" true
    (Zmail.Isp.charge_send isp ~sender:0 ~dest_isp:1 = Zmail.Isp.Sent_paid);
  Alcotest.(check bool) "second blocked" true
    (Zmail.Isp.charge_send isp ~sender:0 ~dest_isp:1
    = Zmail.Isp.Blocked Zmail.Ledger.Insufficient_balance)

let test_isp_limit_and_warning () =
  let _, _, isp =
    make_bank_and_isp ~customize:(fun c -> { c with Zmail.Isp.daily_limit = 2 }) ()
  in
  ignore (Zmail.Isp.charge_send isp ~sender:3 ~dest_isp:1);
  Alcotest.(check (list int)) "no warning yet" [] (Zmail.Isp.limit_warnings isp);
  ignore (Zmail.Isp.charge_send isp ~sender:3 ~dest_isp:1);
  Alcotest.(check (list int)) "warned at limit" [ 3 ] (Zmail.Isp.limit_warnings isp);
  Alcotest.(check bool) "third blocked" true
    (Zmail.Isp.charge_send isp ~sender:3 ~dest_isp:1
    = Zmail.Isp.Blocked Zmail.Ledger.Daily_limit_reached);
  Alcotest.(check (list int)) "warning not repeated" [] (Zmail.Isp.limit_warnings isp);
  Zmail.Isp.end_of_day isp;
  ignore (Zmail.Isp.charge_send isp ~sender:3 ~dest_isp:1);
  Alcotest.(check bool) "fresh day, can send" true
    (Zmail.Ledger.sent_today (Zmail.Isp.ledger isp) ~user:3 = 1)

let run_buy_cycle bank isp =
  match Zmail.Isp.pool_action isp with
  | None -> None
  | Some sealed -> (
      match Zmail.Bank.on_isp_message bank ~from_isp:(Zmail.Isp.index isp) sealed with
      | Zmail.Bank.Reply signed ->
          ignore (Zmail.Isp.on_bank_message isp signed);
          Some signed
      | _ -> None)

let test_isp_pool_buy_cycle () =
  let _, bank, isp =
    make_bank_and_isp
      ~customize:(fun c -> { c with Zmail.Isp.initial_avail = 100; minavail = 200; maxavail = 5000 })
      ()
  in
  (* avail 100 < minavail 200: the ISP should buy. *)
  (match run_buy_cycle bank isp with
  | Some _ ->
      Alcotest.(check int) "pool topped up" 1100
        (Zmail.Ledger.avail (Zmail.Isp.ledger isp))
  | None -> Alcotest.fail "expected a buy");
  Alcotest.(check int) "bank outstanding" 1000 (Zmail.Bank.outstanding_epennies bank);
  Alcotest.(check int) "bank debited the ISP" (1_000_000 - 1000)
    (Zmail.Bank.account_balance bank ~isp:0);
  (* In range now: no action. *)
  Alcotest.(check bool) "no further action" true (Zmail.Isp.pool_action isp = None)

let test_isp_pool_sell_cycle () =
  let _, bank, isp =
    make_bank_and_isp
      ~customize:(fun c ->
        { c with Zmail.Isp.initial_avail = 9000; minavail = 200; maxavail = 5000 })
      ()
  in
  (match run_buy_cycle bank isp with
  | Some _ ->
      (* Sold down to the band midpoint (2600). *)
      Alcotest.(check int) "pool skimmed" 2600 (Zmail.Ledger.avail (Zmail.Isp.ledger isp))
  | None -> Alcotest.fail "expected a sell");
  Alcotest.(check int) "bank outstanding reflects buy-back" (-6400)
    (Zmail.Bank.outstanding_epennies bank)

let test_isp_buy_reply_replay_hardened () =
  let _, bank, isp =
    make_bank_and_isp ~customize:(fun c -> { c with Zmail.Isp.initial_avail = 100 }) ()
  in
  match run_buy_cycle bank isp with
  | None -> Alcotest.fail "expected a buy"
  | Some signed ->
      let before = Zmail.Ledger.avail (Zmail.Isp.ledger isp) in
      (* Replay the same signed reply: hardened kernel ignores it. *)
      ignore (Zmail.Isp.on_bank_message isp signed);
      Alcotest.(check int) "replayed reply ignored" before
        (Zmail.Ledger.avail (Zmail.Isp.ledger isp))

let test_isp_buy_reply_replay_paper_literal () =
  let _, bank, isp =
    make_bank_and_isp
      ~customize:(fun c ->
        { c with Zmail.Isp.initial_avail = 100; replay_hardening = false })
      ()
  in
  match run_buy_cycle bank isp with
  | None -> Alcotest.fail "expected a buy"
  | Some signed ->
      let before = Zmail.Ledger.avail (Zmail.Isp.ledger isp) in
      ignore (Zmail.Isp.on_bank_message isp signed);
      (* The paper's literal rule re-applies the duplicated reply: the
         pool inflates.  E11 quantifies this. *)
      Alcotest.(check int) "paper-literal rule double-applies" (before + 1000)
        (Zmail.Ledger.avail (Zmail.Isp.ledger isp))

let test_isp_snapshot_flow () =
  let r = rng () in
  let compliant = [| true; true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:2 ~compliant) in
  let mk i =
    Zmail.Isp.create r
      (Zmail.Isp.default_config ~index:i ~n_isps:2 ~n_users:2 ~compliant
         ~bank_public:(Zmail.Bank.public_key bank))
  in
  let isp0 = mk 0 and isp1 = mk 1 in
  (* Cross traffic: 0 sends 3 to 1; 1 sends 1 to 0. *)
  for _ = 1 to 3 do
    ignore (Zmail.Isp.charge_send isp0 ~sender:0 ~dest_isp:1);
    ignore (Zmail.Isp.accept_delivery isp1 ~from_isp:0 ~rcpt:0)
  done;
  ignore (Zmail.Isp.charge_send isp1 ~sender:1 ~dest_isp:0);
  ignore (Zmail.Isp.accept_delivery isp0 ~from_isp:1 ~rcpt:1);
  (* Audit. *)
  let requests = Zmail.Bank.start_audit bank in
  Alcotest.(check int) "two requests" 2 (List.length requests);
  let isps = [| isp0; isp1 |] in
  List.iter
    (fun (i, signed) ->
      Alcotest.(check bool) "freeze starts" true
        (Zmail.Isp.on_bank_message isps.(i) signed = Zmail.Isp.Start_snapshot_timer);
      Alcotest.(check bool) "frozen" true (Zmail.Isp.frozen isps.(i));
      Alcotest.(check bool) "sends deferred during freeze" true
        (Zmail.Isp.charge_send isps.(i) ~sender:0 ~dest_isp:(1 - i) = Zmail.Isp.Deferred))
    requests;
  (* Thaw and reply. *)
  let complete = ref None in
  List.iter
    (fun (i, _) ->
      let reply = Zmail.Isp.thaw isps.(i) in
      Alcotest.(check bool) "unfrozen" false (Zmail.Isp.frozen isps.(i));
      Alcotest.(check int) "credit reset" 0
        (Array.fold_left ( + ) 0 (Zmail.Isp.credit_vector isps.(i)));
      match Zmail.Bank.on_isp_message bank ~from_isp:i reply with
      | Zmail.Bank.Audit_complete result -> complete := Some result
      | Zmail.Bank.Audit_progress -> ()
      | Zmail.Bank.Reply _ | Zmail.Bank.Rejected _ -> Alcotest.fail "unexpected response")
    requests;
  match !complete with
  | Some result ->
      Alcotest.(check int) "honest: no violations" 0
        (List.length result.Zmail.Bank.violations);
      Alcotest.(check (list int)) "no suspects" [] result.Zmail.Bank.suspects
  | None -> Alcotest.fail "audit did not complete"

(* The snapshot race behind E16's max-chaos false convictions: ISP 1's
   audit request arrives promptly but ISP 0's is delayed (a faulty bank
   link), so ISP 0 keeps charging mail stamped with the round under
   audit after ISP 1 has already thawed and reported.  When the stamped
   message lands, ISP 1 must fold the receive into its retained round-0
   row and re-send an amended reply — booking it into the open period
   would make round 0 one-sided (+1) and round 1 one-sided (-1), and
   the majority rule can convict an honest ISP off the first. *)
let test_isp_amended_audit_reply () =
  let r = rng () in
  let compliant = [| true; true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:2 ~compliant) in
  let mk i =
    Zmail.Isp.create r
      (Zmail.Isp.default_config ~index:i ~n_isps:2 ~n_users:2 ~compliant
         ~bank_public:(Zmail.Bank.public_key bank))
  in
  let isp0 = mk 0 and isp1 = mk 1 in
  let amended = ref None in
  let round_open = ref true in
  Zmail.Isp.set_amend_hook isp1
    (Some
       (fun ~seq reply ->
         !round_open
         && begin
              amended := Some (seq, reply);
              true
            end));
  (* Balanced pre-audit traffic: 0 sends one paid message to 1. *)
  ignore (Zmail.Isp.charge_send isp0 ~sender:0 ~dest_isp:1);
  ignore (Zmail.Isp.accept_delivery_stamped isp1 ~sender_epoch:(Some 0) ~from_isp:0 ~rcpt:0);
  let requests = Zmail.Bank.start_audit bank in
  let req_for i = List.assoc i requests in
  (* ISP 1's request arrives; it freezes, thaws and reports round 0. *)
  ignore (Zmail.Isp.on_bank_message isp1 (req_for 1));
  (match Zmail.Bank.on_isp_message bank ~from_isp:1 (Zmail.Isp.thaw isp1) with
  | Zmail.Bank.Audit_progress -> ()
  | _ -> Alcotest.fail "expected progress after first reply");
  (* ISP 0's request is still in flight: it charges another message,
     stamped with the round the bank is auditing. *)
  let stamp = Zmail.Isp.audit_seq isp0 in
  Alcotest.(check int) "laggard still stamping round 0" 0 stamp;
  ignore (Zmail.Isp.charge_send isp0 ~sender:1 ~dest_isp:1);
  (* The stamped message lands after ISP 1 already reported: the
     receive folds into the retained row, not the open period, and the
     amend hook fires with the replacement reply. *)
  ignore
    (Zmail.Isp.accept_delivery_stamped isp1 ~sender_epoch:(Some stamp) ~from_isp:0 ~rcpt:1);
  Alcotest.(check int) "open period untouched" 0
    (Zmail.Isp.credit_vector isp1).(0);
  (match !amended with
  | Some (0, reply) -> (
      match Zmail.Bank.on_isp_message bank ~from_isp:1 reply with
      | Zmail.Bank.Audit_progress -> ()
      | _ -> Alcotest.fail "amended reply should keep the round open")
  | Some (s, _) -> Alcotest.failf "amended reply for unexpected round %d" s
  | None -> Alcotest.fail "amend hook did not fire");
  (* ISP 0's delayed request finally arrives; its cumulative row covers
     both sends, and the amended round closes clean. *)
  ignore (Zmail.Isp.on_bank_message isp0 (req_for 0));
  (match Zmail.Bank.on_isp_message bank ~from_isp:0 (Zmail.Isp.thaw isp0) with
  | Zmail.Bank.Audit_complete result ->
      Alcotest.(check int) "amended round has no violations" 0
        (List.length result.Zmail.Bank.violations);
      Alcotest.(check (list int)) "no suspects" [] result.Zmail.Bank.suspects
  | _ -> Alcotest.fail "audit did not complete");
  (* After the round closes the transport refuses the amendment: a
     straggler stamped with the closed round must fall back to the
     open period, not vanish into a report the bank will never
     re-read (the post-partition-heal path). *)
  round_open := false;
  ignore (Zmail.Isp.charge_send isp0 ~sender:0 ~dest_isp:1);
  ignore
    (Zmail.Isp.accept_delivery_stamped isp1 ~sender_epoch:(Some 0) ~from_isp:0 ~rcpt:0);
  Alcotest.(check int) "straggler lands in open period" (-1)
    (Zmail.Isp.credit_vector isp1).(0)

let test_isp_audit_request_replay_ignored () =
  let r = rng () in
  let compliant = [| true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:1 ~compliant) in
  let isp =
    Zmail.Isp.create r
      (Zmail.Isp.default_config ~index:0 ~n_isps:1 ~n_users:2 ~compliant
         ~bank_public:(Zmail.Bank.public_key bank))
  in
  match Zmail.Bank.start_audit bank with
  | [ (0, signed) ] ->
      Alcotest.(check bool) "first accepted" true
        (Zmail.Isp.on_bank_message isp signed = Zmail.Isp.Start_snapshot_timer);
      (* Replaying the request during the freeze does nothing. *)
      Alcotest.(check bool) "replay ignored (frozen)" true
        (Zmail.Isp.on_bank_message isp signed = Zmail.Isp.No_reaction);
      ignore (Zmail.Isp.thaw isp);
      (* And after the freeze, the seq has advanced. *)
      Alcotest.(check bool) "replay ignored (stale seq)" true
        (Zmail.Isp.on_bank_message isp signed = Zmail.Isp.No_reaction)
  | _ -> Alcotest.fail "expected one request"

let test_isp_thaw_without_freeze () =
  let _, _, isp = make_bank_and_isp () in
  Alcotest.(check bool) "thaw without freeze raises" true
    (try
       ignore (Zmail.Isp.thaw isp);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Bank                                                                *)
(* ------------------------------------------------------------------ *)

let test_bank_rejects_forgery () =
  let r = rng () in
  let compliant = [| true; true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:2 ~compliant) in
  (* Seal to the wrong key: generate an unrelated keypair. *)
  let other_pk, _ = Toycrypto.Rsa.generate r in
  let sealed = Zmail.Wire.seal_for_bank r other_pk (Zmail.Wire.Buy { amount = 1; nonce = 1L }) in
  (match Zmail.Bank.on_isp_message bank ~from_isp:0 sealed with
  | Zmail.Bank.Rejected _ -> ()
  | _ -> Alcotest.fail "forged envelope must be rejected");
  Alcotest.(check int) "no account change" 1_000_000
    (Zmail.Bank.account_balance bank ~isp:0)

let test_bank_rejects_noncompliant_and_unknown () =
  let r = rng () in
  let compliant = [| true; false |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:2 ~compliant) in
  let sealed =
    Zmail.Wire.seal_for_bank r (Zmail.Bank.public_key bank)
      (Zmail.Wire.Buy { amount = 1; nonce = 1L })
  in
  (match Zmail.Bank.on_isp_message bank ~from_isp:1 sealed with
  | Zmail.Bank.Rejected _ -> ()
  | _ -> Alcotest.fail "non-compliant ISP must be rejected");
  match Zmail.Bank.on_isp_message bank ~from_isp:7 sealed with
  | Zmail.Bank.Rejected _ -> ()
  | _ -> Alcotest.fail "unknown ISP must be rejected"

let test_bank_buy_insufficient_account () =
  let r = rng () in
  let compliant = [| true |] in
  let bank =
    Zmail.Bank.create r
      { (Zmail.Bank.default_config ~n_isps:1 ~compliant) with
        Zmail.Bank.initial_account = 50 }
  in
  let sealed =
    Zmail.Wire.seal_for_bank r (Zmail.Bank.public_key bank)
      (Zmail.Wire.Buy { amount = 100; nonce = 5L })
  in
  match Zmail.Bank.on_isp_message bank ~from_isp:0 sealed with
  | Zmail.Bank.Reply signed -> (
      match Zmail.Wire.verify_from_bank (Zmail.Bank.public_key bank) signed with
      | Some (Zmail.Wire.Buy_reply { accepted; nonce }) ->
          Alcotest.(check bool) "rejected" false accepted;
          Alcotest.(check int64) "nonce echoed" 5L nonce;
          Alcotest.(check int) "account untouched" 50
            (Zmail.Bank.account_balance bank ~isp:0)
      | Some _ | None -> Alcotest.fail "bad reply")
  | _ -> Alcotest.fail "expected a reply"

let test_bank_replay_detection () =
  let r = rng () in
  let compliant = [| true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:1 ~compliant) in
  let sealed =
    Zmail.Wire.seal_for_bank r (Zmail.Bank.public_key bank)
      (Zmail.Wire.Buy { amount = 100; nonce = 9L })
  in
  let payload_of = function
    | Zmail.Bank.Reply signed -> (
        match Zmail.Wire.verify_from_bank (Zmail.Bank.public_key bank) signed with
        | Some payload -> payload
        | None -> Alcotest.fail "unverifiable reply")
    | _ -> Alcotest.fail "expected a reply"
  in
  let first = payload_of (Zmail.Bank.on_isp_message bank ~from_isp:0 sealed) in
  (* The duplicate is answered from the reply cache — same payload,
     no second debit — so a retransmitting ISP that lost the first
     reply still converges. *)
  let second = payload_of (Zmail.Bank.on_isp_message bank ~from_isp:0 sealed) in
  Alcotest.(check bool) "duplicate re-served the original reply" true
    (first = second);
  Alcotest.(check int) "debited once only" (1_000_000 - 100)
    (Zmail.Bank.account_balance bank ~isp:0);
  Alcotest.(check int) "replay counted" 1 (Zmail.Bank.stats bank).Zmail.Bank.replays_dropped

let test_bank_replay_ablated () =
  let r = rng () in
  let compliant = [| true |] in
  let bank =
    Zmail.Bank.create r
      { (Zmail.Bank.default_config ~n_isps:1 ~compliant) with
        Zmail.Bank.replay_hardening = false }
  in
  let sealed =
    Zmail.Wire.seal_for_bank r (Zmail.Bank.public_key bank)
      (Zmail.Wire.Buy { amount = 100; nonce = 9L })
  in
  ignore (Zmail.Bank.on_isp_message bank ~from_isp:0 sealed);
  ignore (Zmail.Bank.on_isp_message bank ~from_isp:0 sealed);
  Alcotest.(check int) "double debit without hardening" (1_000_000 - 200)
    (Zmail.Bank.account_balance bank ~isp:0)

let test_bank_audit_detects_cheater () =
  let r = rng () in
  let compliant = [| true; true; true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:3 ~compliant) in
  let requests = Zmail.Bank.start_audit bank in
  Alcotest.(check int) "three requests" 3 (List.length requests);
  Alcotest.(check bool) "in progress" true (Zmail.Bank.audit_in_progress bank);
  (* Honest rows for 0 and 1; ISP 2 overstates receives from both. *)
  let send isp credit =
    Zmail.Bank.on_isp_message bank ~from_isp:isp
      (Zmail.Wire.seal_for_bank r (Zmail.Bank.public_key bank)
         (Zmail.Wire.Audit_reply { isp; seq = 0; credit }))
  in
  (match send 0 [| (1, 2); (2, 1) |] with
  | Zmail.Bank.Audit_progress -> ()
  | _ -> Alcotest.fail "expected progress");
  (match send 1 [| (0, -2); (2, 1) |] with
  | Zmail.Bank.Audit_progress -> ()
  | _ -> Alcotest.fail "expected progress");
  match send 2 [| (0, -3); (1, -4) |] with
  | Zmail.Bank.Audit_complete result ->
      Alcotest.(check int) "two violating pairs" 2
        (List.length result.Zmail.Bank.violations);
      Alcotest.(check (list int)) "cheater identified" [ 2 ] result.Zmail.Bank.suspects;
      Alcotest.(check bool) "audit closed" false (Zmail.Bank.audit_in_progress bank)
  | _ -> Alcotest.fail "expected completion"

let test_bank_stale_audit_reply () =
  let r = rng () in
  let compliant = [| true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:1 ~compliant) in
  let stale =
    Zmail.Wire.seal_for_bank r (Zmail.Bank.public_key bank)
      (Zmail.Wire.Audit_reply { isp = 0; seq = 99; credit = [||] })
  in
  match Zmail.Bank.on_isp_message bank ~from_isp:0 stale with
  | Zmail.Bank.Rejected _ -> ()
  | _ -> Alcotest.fail "stale reply must be rejected"

(* Partition tolerance: a quorum round excludes an unreachable ISP and
   carries what its peers claimed against it forward; the cumulative
   row it reports after the heal reconciles those claims — honest ISPs
   produce zero violations across the lagged rounds, and the absentee
   is recorded as absent, never as a suspect. *)
let test_bank_quorum_carry_reconciles () =
  let r = rng () in
  let compliant = [| true; true; true |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:3 ~compliant) in
  let send isp seq credit =
    Zmail.Bank.on_isp_message bank ~from_isp:isp
      (Zmail.Wire.seal_for_bank r (Zmail.Bank.public_key bank)
         (Zmail.Wire.Audit_reply { isp; seq; credit }))
  in
  (* Round 0 runs without ISP 2 (partition-severed).  During the round
     ISP 0 sent 2 paid messages to the unreachable 2 (they bounced or
     crossed before the cut — either way 0's books say "2 owes me"). *)
  let requests = Zmail.Bank.start_audit ~except:[ 2 ] bank in
  Alcotest.(check (list int)) "requests skip the absentee" [ 0; 1 ]
    (List.sort compare (List.map fst requests));
  (match send 0 0 [| (2, 2) |] with
  | Zmail.Bank.Audit_progress -> ()
  | _ -> Alcotest.fail "expected progress");
  (match send 1 0 [||] with
  | Zmail.Bank.Audit_complete result ->
      Alcotest.(check (list int)) "absent recorded" [ 2 ] result.Zmail.Bank.absent;
      Alcotest.(check int) "no violations in the quorum round" 0
        (List.length result.Zmail.Bank.violations);
      Alcotest.(check (list int)) "no suspects" [] result.Zmail.Bank.suspects
  | _ -> Alcotest.fail "expected completion");
  (* Round 1, healed: ISP 2 reports the cumulative row for both billing
     periods (owes 0 the carried 2 plus this round's flow to 1), the
     others report round 1 alone. *)
  ignore (Zmail.Bank.start_audit bank);
  (match send 0 1 [||] with
  | Zmail.Bank.Audit_progress -> ()
  | _ -> Alcotest.fail "expected progress");
  (match send 1 1 [| (2, 1) |] with
  | Zmail.Bank.Audit_progress -> ()
  | _ -> Alcotest.fail "expected progress");
  match send 2 1 [| (0, -2); (1, -1) |] with
  | Zmail.Bank.Audit_complete result ->
      Alcotest.(check (list int)) "nobody absent after heal" []
        result.Zmail.Bank.absent;
      Alcotest.(check int) "carried claims reconcile" 0
        (List.length result.Zmail.Bank.violations);
      Alcotest.(check (list int)) "no false accusations" []
        result.Zmail.Bank.suspects
  | _ -> Alcotest.fail "expected completion"

let test_bank_start_audit_validation () =
  let r = rng () in
  let compliant = [| true; false |] in
  let bank = Zmail.Bank.create r (Zmail.Bank.default_config ~n_isps:2 ~compliant) in
  Alcotest.(check bool) "excluding every compliant ISP raises" true
    (try
       ignore (Zmail.Bank.start_audit ~except:[ 0 ] bank);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Adversary                                                           *)
(* ------------------------------------------------------------------ *)

let sparse_row = Alcotest.(array (pair int int))

let test_adversary_understate () =
  let a = Zmail.Adversary.create (Zmail.Adversary.Understate_owed 3) in
  let row = [| (0, -5); (1, 2); (2, -1) |] in
  let out = Zmail.Adversary.tamper a ~seq:0 row in
  Alcotest.(check sparse_row) "owed entries shrink toward zero"
    [| (0, -2); (1, 2) |] out;
  Alcotest.(check sparse_row) "input row untouched"
    [| (0, -5); (1, 2); (2, -1) |] row;
  Alcotest.(check int) "tamper counted" 1 (Zmail.Adversary.tampered a);
  (* Nothing owed: the tamper is the identity and does not count. *)
  ignore (Zmail.Adversary.tamper a ~seq:1 [| (1, 4) |]);
  Alcotest.(check int) "identity tamper not counted" 1 (Zmail.Adversary.tampered a);
  Alcotest.(check int) "rounds counted" 2 (Zmail.Adversary.rounds a)

let test_adversary_replay_stale () =
  let a = Zmail.Adversary.create Zmail.Adversary.Replay_stale in
  (* First round: nothing to replay — the report is honest. *)
  Alcotest.(check sparse_row) "first round honest" [| (1, 3) |]
    (Zmail.Adversary.tamper a ~seq:0 [| (1, 3) |]);
  Alcotest.(check int) "no tamper yet" 0 (Zmail.Adversary.tampered a);
  (* Second round: the previous truth comes out instead. *)
  Alcotest.(check sparse_row) "second round replays round one" [| (1, 3) |]
    (Zmail.Adversary.tamper a ~seq:1 [| (1, 7) |]);
  Alcotest.(check int) "tamper counted" 1 (Zmail.Adversary.tampered a);
  Alcotest.(check sparse_row) "third round replays round two" [| (1, 7) |]
    (Zmail.Adversary.tamper a ~seq:2 [| (1, 9) |])

let test_adversary_drop_crosscheck () =
  let a = Zmail.Adversary.create (Zmail.Adversary.Drop_crosscheck 1) in
  Alcotest.(check sparse_row) "victim entry dropped" [| (0, 4); (2, -2) |]
    (Zmail.Adversary.tamper a ~seq:0 [| (0, 4); (1, 7); (2, -2) |]);
  Alcotest.(check int) "tamper counted" 1 (Zmail.Adversary.tampered a);
  (* Already silent: nothing to hide, nothing counted. *)
  Alcotest.(check sparse_row) "silent entry untouched" [| (0, 4); (2, -2) |]
    (Zmail.Adversary.tamper a ~seq:1 [| (0, 4); (2, -2) |]);
  Alcotest.(check int) "identity not counted" 1 (Zmail.Adversary.tampered a)

let test_adversary_collude () =
  let a =
    Zmail.Adversary.create
      (Zmail.Adversary.Collude { adjust = [ (2, 3); (1, 7) ] })
  in
  Alcotest.(check sparse_row) "adjustments merge into canonical form"
    [| (1, 7); (2, 2) |]
    (Zmail.Adversary.tamper a ~seq:0 [| (2, -1) |]);
  Alcotest.(check int) "tamper counted" 1 (Zmail.Adversary.tampered a);
  (* An adjustment cancelling a real cell drops it from the row. *)
  Alcotest.(check sparse_row) "cancelled cell dropped" [| (1, 7) |]
    (Zmail.Adversary.tamper a ~seq:1 [| (2, -3) |])

let test_adversary_collusion_plans () =
  (* Pair plan: victim star balances, fabric edge antisymmetric. *)
  (match Zmail.Adversary.collusion_pair ~a:1 ~b:4 ~victim:2 ~delta:3 () with
  | [ (1, Zmail.Adversary.Collude { adjust = adj_a });
      (4, Zmail.Adversary.Collude { adjust = adj_b }) ] ->
      Alcotest.(check int) "victim star balances" 0
        (List.assoc 2 adj_a + List.assoc 2 adj_b);
      Alcotest.(check int) "fabric edge antisymmetric" 0
        (List.assoc 4 adj_a + List.assoc 1 adj_b)
  | _ -> Alcotest.fail "unexpected pair plan shape");
  (* Ring plan: every victim's two adjustments cancel, every adjacent
     member pair's fabricated claims cancel. *)
  let members = [ 0; 1; 2 ] and victims = [ 3; 4; 5 ] in
  let plan =
    Zmail.Adversary.collusion_ring ~members ~victims ~delta:2 ~fabricate:5 ()
  in
  let adjust_of i =
    match List.assoc i plan with
    | Zmail.Adversary.Collude { adjust } -> adjust
    | _ -> Alcotest.fail "expected Collude"
  in
  let claim i p = Option.value ~default:0 (List.assoc_opt p (adjust_of i)) in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "victim %d star balances" v)
        0
        (List.fold_left (fun acc m -> acc + claim m v) 0 members))
    victims;
  List.iteri
    (fun i m ->
      let next = List.nth members ((i + 1) mod List.length members) in
      Alcotest.(check int)
        (Printf.sprintf "fabric %d<->%d antisymmetric" m next)
        0
        (claim m next + claim next m))
    members

let test_adversary_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-positive understatement" true
    (raises (fun () -> Zmail.Adversary.create (Zmail.Adversary.Understate_owed 0)));
  Alcotest.(check bool) "negative victim" true
    (raises (fun () ->
         Zmail.Adversary.create (Zmail.Adversary.Drop_crosscheck (-1))));
  Alcotest.(check bool) "empty collusion adjustment" true
    (raises (fun () ->
         Zmail.Adversary.create (Zmail.Adversary.Collude { adjust = [] })));
  Alcotest.(check bool) "zero collusion delta" true
    (raises (fun () ->
         Zmail.Adversary.create
           (Zmail.Adversary.Collude { adjust = [ (0, 0) ] })));
  Alcotest.(check bool) "duplicate collusion peers" true
    (raises (fun () ->
         Zmail.Adversary.create
           (Zmail.Adversary.Collude { adjust = [ (0, 1); (0, 2) ] })));
  Alcotest.(check bool) "overlapping pair participants" true
    (raises (fun () ->
         Zmail.Adversary.collusion_pair ~a:1 ~b:1 ~victim:2 ~delta:3 ()));
  Alcotest.(check bool) "ring victim overlap" true
    (raises (fun () ->
         Zmail.Adversary.collusion_ring ~members:[ 0; 1 ] ~victims:[ 1; 2 ]
           ~delta:1 ()))

(* ------------------------------------------------------------------ *)
(* Listserv                                                            *)
(* ------------------------------------------------------------------ *)

let addr s = Smtp.Address.of_string_exn s

let make_list () =
  let ls =
    Zmail.Listserv.create ~list_id:"ocaml-weekly" ~address:(addr "list@lists.example")
  in
  List.iter (fun a -> Zmail.Listserv.subscribe ls (addr a))
    [ "alice@a.com"; "bob@b.com"; "carol@c.com" ];
  ls

let test_listserv_distribute () =
  let ls = make_list () in
  Alcotest.(check int) "subscribers" 3 (Zmail.Listserv.subscriber_count ls);
  let expansions = Zmail.Listserv.distribute ls ~body:"issue 1" () in
  Alcotest.(check int) "one per subscriber" 3 (List.length expansions);
  List.iter
    (fun (_, msg) ->
      Alcotest.(check (option string)) "list id stamped" (Some "ocaml-weekly")
        (Smtp.Message.header msg "List-Id"))
    expansions;
  Alcotest.(check int) "spent 3" 3 (Zmail.Listserv.epennies_spent ls)

let test_listserv_acks_refund () =
  let ls = make_list () in
  ignore (Zmail.Listserv.distribute ls ~body:"post" ());
  Alcotest.(check bool) "alice ack" true
    (Zmail.Listserv.on_ack ls ~from:(addr "alice@a.com") ~list_id:"ocaml-weekly");
  Alcotest.(check bool) "duplicate ack refused" false
    (Zmail.Listserv.on_ack ls ~from:(addr "alice@a.com") ~list_id:"ocaml-weekly");
  Alcotest.(check bool) "wrong list refused" false
    (Zmail.Listserv.on_ack ls ~from:(addr "bob@b.com") ~list_id:"other-list");
  Alcotest.(check bool) "non-subscriber refused" false
    (Zmail.Listserv.on_ack ls ~from:(addr "mallory@m.com") ~list_id:"ocaml-weekly");
  Alcotest.(check int) "one refund" 1 (Zmail.Listserv.epennies_refunded ls);
  Alcotest.(check int) "net cost 2" 2 (Zmail.Listserv.net_cost ls)

let test_listserv_prune () =
  let ls = make_list () in
  (* Two posts; only alice acks. *)
  for _ = 1 to 2 do
    ignore (Zmail.Listserv.distribute ls ~body:"post" ());
    ignore (Zmail.Listserv.on_ack ls ~from:(addr "alice@a.com") ~list_id:"ocaml-weekly");
    Zmail.Listserv.note_post_complete ls
  done;
  let removed = Zmail.Listserv.prune ls ~max_missed:2 in
  Alcotest.(check (list string)) "dead subscribers pruned" [ "bob@b.com"; "carol@c.com" ]
    (List.map Smtp.Address.to_string removed);
  Alcotest.(check int) "alice stays" 1 (Zmail.Listserv.subscriber_count ls);
  Alcotest.(check bool) "alice subscribed" true
    (List.mem (addr "alice@a.com") (Zmail.Listserv.subscribers ls))

let test_listserv_ack_resets_missed () =
  let ls = make_list () in
  (* bob misses one, then acks one: never pruned at max_missed 2. *)
  ignore (Zmail.Listserv.distribute ls ~body:"p1" ());
  Zmail.Listserv.note_post_complete ls;
  ignore (Zmail.Listserv.distribute ls ~body:"p2" ());
  ignore (Zmail.Listserv.on_ack ls ~from:(addr "bob@b.com") ~list_id:"ocaml-weekly");
  Zmail.Listserv.note_post_complete ls;
  ignore (Zmail.Listserv.distribute ls ~body:"p3" ());
  Zmail.Listserv.note_post_complete ls;
  let removed = Zmail.Listserv.prune ls ~max_missed:2 in
  Alcotest.(check bool) "bob survived" false
    (List.exists (fun a -> Smtp.Address.to_string a = "bob@b.com") removed)

let test_listserv_unsubscribe () =
  let ls = make_list () in
  Zmail.Listserv.unsubscribe ls (addr "bob@b.com");
  Alcotest.(check int) "two left" 2 (Zmail.Listserv.subscriber_count ls);
  Alcotest.(check int) "distribution shrinks" 2
    (List.length (Zmail.Listserv.distribute ls ~body:"x" ()))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "zmail"
    [
      ("epenny", [ Alcotest.test_case "conversions" `Quick test_epenny ]);
      ( "credit",
        [
          Alcotest.test_case "vector ops" `Quick test_credit_vector;
          Alcotest.test_case "epoch ladder" `Quick test_credit_epoch_ladder;
          Alcotest.test_case "amend receive" `Quick test_credit_amend_receive;
          Alcotest.test_case "audit consistent" `Quick test_audit_consistent;
          Alcotest.test_case "audit mismatch" `Quick test_audit_detects_mismatch;
          Alcotest.test_case "audit ignores non-compliant" `Quick
            test_audit_ignores_noncompliant;
        ] );
      ( "wire",
        Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip
        :: Alcotest.test_case "garbage" `Quick test_wire_decode_garbage
        :: Alcotest.test_case "seal roundtrip" `Quick test_wire_seal_roundtrip
        :: Alcotest.test_case "seal tamper" `Quick test_wire_seal_tamper
        :: Alcotest.test_case "signature" `Quick test_wire_signature
        :: qcheck [ wire_roundtrip_prop ] );
      ( "ledger",
        Alcotest.test_case "send/receive" `Quick test_ledger_send_receive
        :: Alcotest.test_case "blocks" `Quick test_ledger_blocks
        :: Alcotest.test_case "local transfer" `Quick test_ledger_local_transfer
        :: Alcotest.test_case "user buy/sell" `Quick test_ledger_user_buy_sell
        :: Alcotest.test_case "pool bounds" `Quick test_ledger_pool_bounds
        :: Alcotest.test_case "per-user limit" `Quick test_ledger_per_user_limit
        :: qcheck [ ledger_conservation_prop ] );
      ( "isp",
        [
          Alcotest.test_case "paid remote send" `Quick test_isp_send_paid_remote;
          Alcotest.test_case "local send no credit" `Quick test_isp_send_local_no_credit;
          Alcotest.test_case "non-compliant free" `Quick test_isp_send_noncompliant_free;
          Alcotest.test_case "receive" `Quick test_isp_receive;
          Alcotest.test_case "blocked by balance" `Quick test_isp_blocked_by_balance;
          Alcotest.test_case "limit warning" `Quick test_isp_limit_and_warning;
          Alcotest.test_case "pool buy cycle" `Quick test_isp_pool_buy_cycle;
          Alcotest.test_case "pool sell cycle" `Quick test_isp_pool_sell_cycle;
          Alcotest.test_case "reply replay (hardened)" `Quick
            test_isp_buy_reply_replay_hardened;
          Alcotest.test_case "reply replay (paper literal)" `Quick
            test_isp_buy_reply_replay_paper_literal;
          Alcotest.test_case "snapshot flow" `Quick test_isp_snapshot_flow;
          Alcotest.test_case "amended audit reply" `Quick
            test_isp_amended_audit_reply;
          Alcotest.test_case "request replay ignored" `Quick
            test_isp_audit_request_replay_ignored;
          Alcotest.test_case "thaw without freeze" `Quick test_isp_thaw_without_freeze;
        ] );
      ( "bank",
        [
          Alcotest.test_case "rejects forgery" `Quick test_bank_rejects_forgery;
          Alcotest.test_case "rejects non-compliant" `Quick
            test_bank_rejects_noncompliant_and_unknown;
          Alcotest.test_case "insufficient account" `Quick
            test_bank_buy_insufficient_account;
          Alcotest.test_case "replay detection" `Quick test_bank_replay_detection;
          Alcotest.test_case "replay ablated" `Quick test_bank_replay_ablated;
          Alcotest.test_case "audit detects cheater" `Quick test_bank_audit_detects_cheater;
          Alcotest.test_case "stale audit reply" `Quick test_bank_stale_audit_reply;
          Alcotest.test_case "quorum carry reconciles" `Quick
            test_bank_quorum_carry_reconciles;
          Alcotest.test_case "start_audit validation" `Quick
            test_bank_start_audit_validation;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "understate owed" `Quick test_adversary_understate;
          Alcotest.test_case "replay stale" `Quick test_adversary_replay_stale;
          Alcotest.test_case "drop cross-check" `Quick test_adversary_drop_crosscheck;
          Alcotest.test_case "collude" `Quick test_adversary_collude;
          Alcotest.test_case "collusion plans" `Quick test_adversary_collusion_plans;
          Alcotest.test_case "validation" `Quick test_adversary_validation;
        ] );
      ( "listserv",
        [
          Alcotest.test_case "distribute" `Quick test_listserv_distribute;
          Alcotest.test_case "acks refund" `Quick test_listserv_acks_refund;
          Alcotest.test_case "prune" `Quick test_listserv_prune;
          Alcotest.test_case "ack resets missed" `Quick test_listserv_ack_resets_missed;
          Alcotest.test_case "unsubscribe" `Quick test_listserv_unsubscribe;
        ] );
    ]
