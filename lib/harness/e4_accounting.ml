(* One day of traffic at a mid-size ISP pair: organic mail plus a bulk
   sender, with a daily audit on the Zmail side. *)

let spam_fraction = 0.6

let zmail_side ~obs ~persist ~seed =
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:2 ~users_per_isp:60) with
        Zmail.World.seed;
        audit_period = Some Sim.Engine.day;
        tracer = obs.Obs.Run.tracer;
        customize_isp = (fun _ c -> { c with Zmail.Isp.daily_limit = 100_000 });
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  Zmail.World.attach_user_traffic world ();
  (* Bulk senders supply the spam share. *)
  Zmail.World.attach_bulk_sender world ~isp:0 ~user:0 ~per_day:800. ();
  Zmail.World.attach_bulk_sender world ~isp:1 ~user:0 ~per_day:800. ();
  (* A day rarely draws the default pool (1,000 pennies) below its
     200-penny band, so exactly-once may see no buy or sell (DESIGN §5). *)
  Cell.finish_live ~name:"E4" ~persist ~idle:[ "exactly-once" ] ~days:1.05
    world checkers;
  let c = Zmail.World.counters world in
  let delivered = c.Zmail.World.ham_delivered + c.Zmail.World.spam_delivered in
  let bank_stats = Zmail.Bank.stats (Zmail.World.bank world) in
  (* Ledger operations per delivered message: one debit at the sender,
     one credit at the receiver (plus two credit-vector bumps). *)
  let ledger_ops = 4 * delivered in
  let settlement_msgs =
    bank_stats.Zmail.Bank.messages_in + bank_stats.Zmail.Bank.messages_out
  in
  (* Estimate settlement bytes from a representative sealed reply. *)
  let rng = Sim.Rng.create seed in
  let pk, _ = Toycrypto.Rsa.generate rng in
  let sample =
    Zmail.Wire.seal_for_bank rng pk
      (Zmail.Wire.Audit_reply { isp = 0; seq = 0; credit = [| (1, 1) |] })
  in
  let settlement_bytes = settlement_msgs * Toycrypto.Seal.size_bytes sample in
  ( (delivered, ledger_ops, settlement_msgs, settlement_bytes, 0., 0.),
    Obs.Metrics.to_table (Zmail.World.metrics world) )

let shred_side ~seed ~messages =
  let rng = Sim.Rng.create seed in
  let model = Baselines.Shred.create Baselines.Shred.default_params in
  let spam = int_of_float (float_of_int messages *. spam_fraction) in
  for _ = 1 to spam do
    Baselines.Shred.on_spam_received model rng
  done;
  for _ = 1 to messages - spam do
    Baselines.Shred.on_legit_received model
  done;
  let t = Baselines.Shred.totals model in
  (* Each individual payment is a settlement message of ~120 bytes
     (message id, parties, amount, authenticator). *)
  let settlement_bytes = 120 * t.Baselines.Shred.payments_processed in
  ( messages,
    t.Baselines.Shred.accounting_ops,
    t.Baselines.Shred.payments_processed,
    settlement_bytes,
    t.Baselines.Shred.human_seconds,
    t.Baselines.Shred.isp_processing_cost_cents /. 100. )

let run ?obs ?persist ?(seed = 4) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let (delivered, z_ops, z_msgs, z_bytes, z_human, z_cost), metrics_table =
    zmail_side ~obs ~persist ~seed
  in
  let _, s_ops, s_msgs, s_bytes, s_human, s_cost =
    shred_side ~seed ~messages:delivered
  in
  let table =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E4: payment-handling cost for %d delivered messages (%.0f%% spam), \
            Zmail (daily bulk audit) vs SHRED (per-message receiver-triggered)"
           delivered (100. *. spam_fraction))
      ~columns:
        [
          "scheme";
          "ledger ops";
          "ops/email";
          "settlement msgs";
          "settlement bytes";
          "human seconds";
          "ISP processing cost";
        ]
  in
  let row scheme ops msgs bytes human cost =
    Sim.Table.add_row table
      [
        scheme;
        Sim.Table.cell_int ops;
        Sim.Table.cell (float_of_int ops /. float_of_int delivered);
        Sim.Table.cell_int msgs;
        Sim.Table.cell_int bytes;
        Sim.Table.cell human;
        Sim.Table.cell_money cost;
      ]
  in
  row "Zmail" z_ops z_msgs z_bytes z_human z_cost;
  row "SHRED" s_ops s_msgs s_bytes s_human s_cost;
  Cell.tables obs [ table ] [ metrics_table ]
