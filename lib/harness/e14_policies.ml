let trained_filter seed =
  let filter = Baselines.Bayes_filter.create () in
  Baselines.Bayes_filter.train_all filter
    (Econ.Corpus.generate (Sim.Rng.create seed)
       { Econ.Corpus.default_params with Econ.Corpus.n = 2000 });
  filter

(* Bodies that give the content filter something real to score. *)
let spam_body rng =
  String.concat " "
    (List.init 25 (fun _ -> Sim.Rng.pick rng Econ.Corpus.spam_vocabulary))

let ham_body rng =
  String.concat " "
    (List.init 25 (fun _ -> Sim.Rng.pick rng Econ.Corpus.ham_vocabulary))

let run_policy ~seed policy =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:4 ~users_per_isp:20) with
        Zmail.World.seed;
        compliant = [| true; true; false; false |];
        unpaid_policy = policy;
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  let rng = Sim.Rng.create (seed + 1000) in
  (* Organic ham from the non-compliant side to compliant users, and a
     spam campaign from a non-compliant bulk sender. *)
  for day = 0 to 2 do
    for k = 0 to 199 do
      let to_ = (k mod 2, 1 + (k mod 19)) in
      if k mod 4 = 0 then
        ignore
          (Zmail.World.send_email world ~from:(2, 1 + (k mod 10)) ~to_
             ~subject:"project report" ~body:(ham_body rng) ())
      else
        ignore
          (Zmail.World.send_email world ~from:(3, 0) ~to_ ~spam:true
             ~subject:"winner free prize" ~body:(spam_body rng) ())
    done;
    ignore day;
    Zmail.World.run_days world 1.
  done;
  (* No buy, sell or audit round happens here, so exactly-once and
     cycle-residue have nothing to watch (DESIGN §5). *)
  Cell.drain ~name:"E14" ~idle:[ "exactly-once"; "cycle-residue" ] world checkers;
  let c = Zmail.World.counters world in
  (c.Zmail.World.spam_delivered, c.Zmail.World.ham_delivered, c.Zmail.World.unpaid_discarded)

let run ?(seed = 14) () =
  let filter = trained_filter seed in
  let policies =
    [
      ("deliver unpaid mail", Zmail.World.Unpaid_deliver);
      ( "filter unpaid mail (Bayes)",
        Zmail.World.Unpaid_filter
          { score = Baselines.Bayes_filter.spam_probability filter; threshold = 0.9 } );
      ("discard unpaid mail", Zmail.World.Unpaid_discard);
    ]
  in
  let table =
    Sim.Table.create
      ~title:
        "E14 (ablation): unpaid-mail policy at compliant ISPs during \
         deployment (450 unpaid spam + 150 unpaid ham over 3 days)"
      ~columns:
        [ "policy"; "spam reaching users"; "legit mail delivered"; "mail discarded" ]
  in
  List.iter
    (fun (label, policy) ->
      let spam, ham, discarded = run_policy ~seed policy in
      Sim.Table.add_row table
        [
          label;
          Sim.Table.cell_int spam;
          Sim.Table.cell_int ham;
          Sim.Table.cell_int discarded;
        ])
    policies;
  [ table ]
