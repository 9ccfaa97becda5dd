(* Tests for the comparison baselines. *)

let rng () = Sim.Rng.create 99

(* ------------------------------------------------------------------ *)
(* Naive Bayes                                                         *)
(* ------------------------------------------------------------------ *)

let train_corpus ?(n = 1500) ?(misspell = 0.) () =
  Econ.Corpus.generate (rng ())
    { Econ.Corpus.default_params with Econ.Corpus.n; misspell_probability = misspell }

let test_bayes_untrained () =
  let f = Baselines.Bayes_filter.create () in
  Alcotest.(check (float 1e-9)) "prior 0.5" 0.5
    (Baselines.Bayes_filter.spam_probability f [ "viagra" ])

let test_bayes_learns () =
  let f = Baselines.Bayes_filter.create () in
  Baselines.Bayes_filter.train_all f (train_corpus ());
  Alcotest.(check bool) "spammy tokens score high" true
    (Baselines.Bayes_filter.spam_probability f [ "viagra"; "free"; "winner" ] > 0.9);
  Alcotest.(check bool) "hammy tokens score low" true
    (Baselines.Bayes_filter.spam_probability f [ "meeting"; "agenda"; "minutes" ] < 0.1)

let test_bayes_accuracy_clean () =
  let f = Baselines.Bayes_filter.create () in
  Baselines.Bayes_filter.train_all f (train_corpus ());
  let eval =
    Baselines.Bayes_filter.evaluate f
      (Econ.Corpus.generate (Sim.Rng.create 123)
         { Econ.Corpus.default_params with Econ.Corpus.n = 1000 })
  in
  Alcotest.(check bool) "high recall on clean spam" true
    (Baselines.Bayes_filter.recall eval > 0.9)

let test_bayes_evaded_by_misspelling () =
  let f = Baselines.Bayes_filter.create () in
  Baselines.Bayes_filter.train_all f (train_corpus ());
  let clean_eval =
    Baselines.Bayes_filter.evaluate f
      (Econ.Corpus.generate (Sim.Rng.create 5)
         { Econ.Corpus.default_params with Econ.Corpus.n = 1000 })
  in
  let evaded_eval =
    Baselines.Bayes_filter.evaluate f
      (Econ.Corpus.generate (Sim.Rng.create 5)
         { Econ.Corpus.default_params with
           Econ.Corpus.n = 1000;
           misspell_probability = 1.;
         })
  in
  Alcotest.(check bool) "misspelling cuts recall" true
    (Baselines.Bayes_filter.recall evaded_eval
    < Baselines.Bayes_filter.recall clean_eval -. 0.2)

let test_bayes_evaluation_counts () =
  let f = Baselines.Bayes_filter.create () in
  Baselines.Bayes_filter.train_all f (train_corpus ());
  let docs =
    Econ.Corpus.generate (Sim.Rng.create 9)
      { Econ.Corpus.default_params with Econ.Corpus.n = 500 }
  in
  let e = Baselines.Bayes_filter.evaluate f docs in
  Alcotest.(check int) "counts partition the corpus" 500
    (e.Baselines.Bayes_filter.true_positives + e.Baselines.Bayes_filter.false_positives
    + e.Baselines.Bayes_filter.true_negatives
    + e.Baselines.Bayes_filter.false_negatives)

(* ------------------------------------------------------------------ *)
(* Blacklist / whitelist                                               *)
(* ------------------------------------------------------------------ *)

let test_blacklist () =
  let b = Baselines.Blacklist.create () in
  Baselines.Blacklist.ban_domain b "SpamHaus.biz";
  Alcotest.(check bool) "banned domain rejected" true
    (Baselines.Blacklist.check b ~sender:"evil@spamhaus.BIZ"
    = Baselines.Blacklist.Reject_blacklisted);
  Alcotest.(check bool) "unknown accepted" true
    (Baselines.Blacklist.check b ~sender:"friend@ok.com"
    = Baselines.Blacklist.Accept_unknown)

(* ------------------------------------------------------------------ *)
(* Hashcash                                                            *)
(* ------------------------------------------------------------------ *)

let test_hashcash_mint_verify () =
  let stamp, work = Baselines.Hashcash.mint (rng ()) ~recipient:"bob@b.com" ~difficulty:8 in
  Alcotest.(check bool) "verifies" true (Baselines.Hashcash.verify stamp);
  Alcotest.(check bool) "did some work" true (work >= 1)

let test_hashcash_work_scales () =
  let r = rng () in
  let avg difficulty =
    let total = ref 0 in
    for _ = 1 to 30 do
      let _, w = Baselines.Hashcash.mint r ~recipient:"x@y.com" ~difficulty in
      total := !total + w
    done;
    float_of_int !total /. 30.
  in
  let w4 = avg 4 and w8 = avg 8 in
  (* Expected 16 vs 256 attempts; allow generous noise. *)
  Alcotest.(check bool) "difficulty 8 much harder than 4" true (w8 /. w4 > 4.)

let test_hashcash_difficulty_bounds () =
  Alcotest.(check bool) "difficulty 31 rejected" true
    (try
       ignore (Baselines.Hashcash.mint (rng ()) ~recipient:"x" ~difficulty:31);
       false
     with Invalid_argument _ -> true)

let test_hashcash_stamp_bound_to_recipient () =
  let r = rng () in
  let stamp, _ = Baselines.Hashcash.mint r ~recipient:"bob@b.com" ~difficulty:10 in
  (* A stamp for bob is (overwhelmingly) not valid for carol: minting
     for carol requires fresh work.  We verify indirectly: the stamp
     validates and records its recipient. *)
  Alcotest.(check string) "recipient recorded" "bob@b.com"
    stamp.Baselines.Hashcash.recipient

(* ------------------------------------------------------------------ *)
(* Challenge-response                                                  *)
(* ------------------------------------------------------------------ *)

let test_challenge_first_contact () =
  let c = Baselines.Challenge.create Baselines.Challenge.default_params in
  let r = rng () in
  let fate1 =
    Baselines.Challenge.process c r ~sender:"alice@a.com" ~is_spam:false
      ~is_automated:false
  in
  Alcotest.(check bool) "first contact challenged" true
    (fate1 = Baselines.Challenge.Challenged_then_delivered);
  let fate2 =
    Baselines.Challenge.process c r ~sender:"alice@a.com" ~is_spam:false
      ~is_automated:false
  in
  Alcotest.(check bool) "second contact direct" true
    (fate2 = Baselines.Challenge.Delivered);
  let t = Baselines.Challenge.totals c in
  Alcotest.(check int) "one challenge" 1 t.Baselines.Challenge.challenges_sent;
  Alcotest.(check (float 1e-9)) "12 human seconds" 12. t.Baselines.Challenge.human_seconds

let test_challenge_drops_spam_and_newsletters () =
  let c = Baselines.Challenge.create Baselines.Challenge.default_params in
  let r = rng () in
  Alcotest.(check bool) "spam dropped" true
    (Baselines.Challenge.process c r ~sender:"spam@bot.net" ~is_spam:true
       ~is_automated:true
    = Baselines.Challenge.Dropped_spam);
  Alcotest.(check bool) "newsletter lost" true
    (Baselines.Challenge.process c r ~sender:"news@paper.com" ~is_spam:false
       ~is_automated:true
    = Baselines.Challenge.Held_forever);
  let t = Baselines.Challenge.totals c in
  Alcotest.(check int) "legit lost counted" 1 t.Baselines.Challenge.legit_lost;
  Alcotest.(check int) "spam dropped counted" 1 t.Baselines.Challenge.spam_dropped

let test_challenge_spammer_answering_bypass () =
  let params = { Baselines.Challenge.default_params with Baselines.Challenge.spammer_answers = true } in
  let c = Baselines.Challenge.create params in
  let r = rng () in
  ignore
    (Baselines.Challenge.process c r ~sender:"spam@bot.net" ~is_spam:true
       ~is_automated:true);
  ignore
    (Baselines.Challenge.process c r ~sender:"spam@bot.net" ~is_spam:true
       ~is_automated:true);
  let t = Baselines.Challenge.totals c in
  Alcotest.(check int) "spam gets through" 2 t.Baselines.Challenge.spam_delivered

(* ------------------------------------------------------------------ *)
(* SHRED                                                               *)
(* ------------------------------------------------------------------ *)

let test_shred_accounting () =
  let s = Baselines.Shred.create Baselines.Shred.default_params in
  let r = rng () in
  for _ = 1 to 10_000 do
    Baselines.Shred.on_spam_received s r
  done;
  let t = Baselines.Shred.totals s in
  Alcotest.(check int) "all spam seen" 10_000 t.Baselines.Shred.spam_seen;
  (* trigger probability 0.3 *)
  Alcotest.(check bool) "triggers ~30%" true
    (abs (t.Baselines.Shred.triggers - 3000) < 300);
  Alcotest.(check (float 1e-9)) "receiver earns nothing" 0.
    t.Baselines.Shred.receiver_earned_cents;
  (* Processing at 2c/payment exceeds the 1c collected. *)
  Alcotest.(check bool) "processing exceeds collection" true
    (t.Baselines.Shred.isp_processing_cost_cents > t.Baselines.Shred.spammer_paid_cents);
  Alcotest.(check bool) "human effort spent" true (t.Baselines.Shred.human_seconds > 0.)

let test_shred_collusion () =
  let params = { Baselines.Shred.default_params with Baselines.Shred.colluding_isps = 1. } in
  let s = Baselines.Shred.create params in
  let r = rng () in
  for _ = 1 to 1000 do
    Baselines.Shred.on_spam_received s r
  done;
  let t = Baselines.Shred.totals s in
  Alcotest.(check (float 1e-9)) "collusion zeroes spammer cost" 0.
    t.Baselines.Shred.spammer_paid_cents;
  Alcotest.(check bool) "but triggers still happened" true
    (t.Baselines.Shred.triggers > 0)

let test_shred_legit_untouched () =
  let s = Baselines.Shred.create Baselines.Shred.default_params in
  Baselines.Shred.on_legit_received s;
  let t = Baselines.Shred.totals s in
  Alcotest.(check int) "legit counted" 1 t.Baselines.Shred.legit_seen;
  Alcotest.(check int) "no ops for legit" 0 t.Baselines.Shred.accounting_ops

let () =
  Alcotest.run "baselines"
    [
      ( "bayes",
        [
          Alcotest.test_case "untrained prior" `Quick test_bayes_untrained;
          Alcotest.test_case "learns" `Quick test_bayes_learns;
          Alcotest.test_case "clean accuracy" `Quick test_bayes_accuracy_clean;
          Alcotest.test_case "misspelling evasion" `Quick test_bayes_evaded_by_misspelling;
          Alcotest.test_case "evaluation counts" `Quick test_bayes_evaluation_counts;
        ] );
      ( "blacklist",
        [
          Alcotest.test_case "ban/unban" `Quick test_blacklist;
        ] );
      ( "hashcash",
        [
          Alcotest.test_case "mint/verify" `Quick test_hashcash_mint_verify;
          Alcotest.test_case "work scales" `Quick test_hashcash_work_scales;
          Alcotest.test_case "difficulty bounds" `Quick test_hashcash_difficulty_bounds;
          Alcotest.test_case "stamp binding" `Quick test_hashcash_stamp_bound_to_recipient;
        ] );
      ( "challenge",
        [
          Alcotest.test_case "first contact" `Quick test_challenge_first_contact;
          Alcotest.test_case "spam and newsletters" `Quick
            test_challenge_drops_spam_and_newsletters;
          Alcotest.test_case "answering spammer bypass" `Quick
            test_challenge_spammer_answering_bypass;
        ] );
      ( "shred",
        [
          Alcotest.test_case "accounting" `Quick test_shred_accounting;
          Alcotest.test_case "collusion" `Quick test_shred_collusion;
          Alcotest.test_case "legit untouched" `Quick test_shred_legit_untouched;
        ] );
    ]
