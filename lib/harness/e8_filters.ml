let corpus rng ~n ~misspell ~newsletters =
  Econ.Corpus.generate rng
    {
      Econ.Corpus.default_params with
      Econ.Corpus.n;
      misspell_probability = misspell;
      newsletter_fraction = newsletters;
    }

let bayes_rows rng =
  let filter = Baselines.Bayes_filter.create () in
  (* Trained on yesterday's mail: few commercial newsletters.  The
     evaluation stream has more of them — the §2.2 false-positive
     victims. *)
  Baselines.Bayes_filter.train_all filter
    (corpus rng ~n:3000 ~misspell:0. ~newsletters:0.01);
  let eval label misspell =
    let e =
      Baselines.Bayes_filter.evaluate filter
        (corpus rng ~n:2000 ~misspell ~newsletters:0.15)
    in
    ( label,
      Baselines.Bayes_filter.recall e,
      Baselines.Bayes_filter.false_positive_rate e )
  in
  [ eval "naive Bayes (clean spam)" 0.; eval "naive Bayes (misspelled spam)" 0.9 ]

let blacklist_row rng =
  (* 60% of spam arrives from listed domains; the rest is relayed
     through clean hosts, the evasion §2.2 describes. *)
  let bl = Baselines.Blacklist.create () in
  Baselines.Blacklist.ban_domain bl "known-spammer.example";
  let n = 2000 in
  let blocked = ref 0 and spam = ref 0 in
  for _ = 1 to n do
    if Sim.Dist.bernoulli rng 0.6 then begin
      incr spam;
      let sender =
        if Sim.Dist.bernoulli rng 0.6 then "bulk@known-spammer.example"
        else "bulk@fresh-relay.example"
      in
      match Baselines.Blacklist.check bl ~sender with
      | Baselines.Blacklist.Reject_blacklisted -> incr blocked
      | Baselines.Blacklist.Accept_unknown -> ()
    end
  done;
  ("blacklist (60% relay evasion)", float_of_int !blocked /. float_of_int !spam, 0.)

let challenge_row rng =
  let model = Baselines.Challenge.create Baselines.Challenge.default_params in
  let n = 2000 in
  let spam_total = ref 0 and spam_blocked = ref 0 in
  let ham_total = ref 0 and ham_lost = ref 0 in
  for k = 1 to n do
    let is_spam = Sim.Dist.bernoulli rng 0.6 in
    let is_automated = (not is_spam) && Sim.Dist.bernoulli rng 0.15 in
    let sender =
      if is_spam then Printf.sprintf "spam%d@bots.example" k
      else Printf.sprintf "user%d@people.example" (k mod 200)
    in
    match Baselines.Challenge.process model rng ~sender ~is_spam ~is_automated with
    | Baselines.Challenge.Dropped_spam ->
        incr spam_total;
        incr spam_blocked
    | Baselines.Challenge.Held_forever ->
        incr ham_total;
        incr ham_lost
    | Baselines.Challenge.Delivered | Baselines.Challenge.Challenged_then_delivered ->
        if is_spam then incr spam_total else incr ham_total
  done;
  ( "challenge-response",
    float_of_int !spam_blocked /. float_of_int !spam_total,
    float_of_int !ham_lost /. float_of_int !ham_total )

let zmail_row rng =
  (* Zmail suppresses spam economically: the E1 surviving-volume
     fraction at one e-penny, independent of message content — the
     misspelling adversary changes nothing. *)
  let campaigns = Econ.Campaign.population rng Econ.Campaign.default_population in
  let at_penny = Econ.Market.evaluate campaigns ~price:Econ.Market.epenny_price in
  ("Zmail (1 e-penny/message)", 1. -. at_penny.Econ.Market.volume_fraction, 0.)

let run ?(seed = 8) () =
  let rng = Sim.Rng.create seed in
  let table =
    Sim.Table.create
      ~title:
        "E8: spam blocked vs legitimate mail lost, filtering baselines vs \
         Zmail (2000-message evaluation streams)"
      ~columns:[ "approach"; "spam blocked"; "legit lost (false positives)" ]
  in
  let add (label, blocked, lost) =
    Sim.Table.add_row table
      [ label; Sim.Table.cell_pct blocked; Sim.Table.cell_pct lost ]
  in
  List.iter add (bayes_rows rng);
  add (blacklist_row rng);
  add (challenge_row rng);
  add (zmail_row rng);
  [ table ]
