(* Four ISPs homed round-robin to two banks.  ISPs 0 and 2 (bank 0's
   members) send far more than they receive, so e-pennies migrate to
   bank 1's members, whose pool sells then drain bank 1's cash.  The
   imbalance is then cleared over a reliable mesh by [Zmail.Clearing]. *)

let run ?(seed = 15) () =
  let rng = Sim.Rng.create seed in
  let n_isps = 4 in
  let compliant = Array.make n_isps true in
  let federation =
    Zmail.Federation.create rng (Zmail.Federation.default_config ~n_banks:2 ~n_isps)
  in
  let kernels =
    Array.init n_isps (fun i ->
        let bank = Zmail.Federation.home_of federation ~isp:i in
        Zmail.Isp.create rng
          { (Zmail.Isp.default_config ~index:i ~n_isps ~n_users:5 ~compliant
               ~bank_public:(Zmail.Federation.public_key federation ~bank))
            with
            Zmail.Isp.initial_balance = 400;
            daily_limit = 10_000;
            minavail = 200;
            maxavail = 900;
            initial_avail = 500;
            buy_amount = 500;
          })
  in
  let exchange_pools () =
    Array.iteri
      (fun i kernel ->
        match Zmail.Isp.pool_action kernel with
        | None -> ()
        | Some sealed -> (
            match Zmail.Federation.on_isp_message federation ~from_isp:i sealed with
            | Zmail.Federation.Reply signed ->
                ignore (Zmail.Isp.on_bank_message kernel signed)
            | Zmail.Federation.Rejected _ -> ()))
      kernels
  in
  (* 14 days of asymmetric flow: bank-0 members blast bank-1 members;
     light reverse traffic.  Users sell windfall e-pennies back to
     their ISP pool, which pushes the pools across their bands and
     drives federation buys/sells. *)
  for _day = 1 to 14 do
    for _ = 1 to 120 do
      let sender = if Sim.Rng.bool rng then 0 else 2 in
      let receiver = if Sim.Rng.bool rng then 1 else 3 in
      if Zmail.Isp.charge_send kernels.(sender) ~sender:0 ~dest_isp:receiver
         = Zmail.Isp.Sent_paid
      then ignore (Zmail.Isp.accept_delivery kernels.(receiver) ~from_isp:sender ~rcpt:0)
    done;
    for _ = 1 to 15 do
      if Zmail.Isp.charge_send kernels.(1) ~sender:1 ~dest_isp:0 = Zmail.Isp.Sent_paid
      then ignore (Zmail.Isp.accept_delivery kernels.(0) ~from_isp:1 ~rcpt:1)
    done;
    (* Receivers cash out; senders top up (through their ledgers). *)
    Array.iter
      (fun kernel ->
        let ledger = Zmail.Isp.ledger kernel in
        for u = 0 to 4 do
          let balance = Zmail.Ledger.balance ledger ~user:u in
          if balance > 450 then ignore (Zmail.Ledger.user_sell ledger ~user:u ~amount:(balance - 400));
          if balance < 50 then ignore (Zmail.Ledger.user_buy ledger ~user:u ~amount:100)
        done)
      kernels;
    exchange_pools ();
    Array.iter Zmail.Isp.end_of_day kernels
  done;
  let positions =
    Sim.Table.create
      ~title:
        "E15 (extension): two member banks after 14 days of asymmetric \
         cross-bank mail"
      ~columns:
        [ "bank"; "e-pennies issued - redeemed"; "cash position vs fair share" ]
  in
  let before =
    List.map
      (fun b ->
        ( b,
          Zmail.Federation.outstanding federation ~bank:b,
          Zmail.Federation.position federation ~bank:b ))
      [ 0; 1 ]
  in
  List.iter
    (fun (b, outstanding, position) ->
      Sim.Table.add_row positions
        [
          Printf.sprintf "bank %d" b;
          Sim.Table.cell_int outstanding;
          Sim.Table.cell_int position;
        ])
    before;
  (* Settle through the clearing driver on a reliable two-bank mesh,
     and let every transfer land before reading the positions. *)
  let engine = Sim.Engine.create ~seed () in
  let mesh =
    Sim.Fault.Mesh.create ~n_nodes:2 engine (Sim.Rng.stream ~seed ~tag:0xc1ea7)
  in
  let clr = Zmail.Clearing.create ~engine ~mesh federation in
  let transfers = Zmail.Clearing.settle_round clr in
  Sim.Engine.run engine;
  let clearing =
    Sim.Table.create ~title:"E15: clearing transfers and post-settlement positions"
      ~columns:[ "transfer"; "amount"; "positions after" ]
  in
  (match transfers with
  | [] -> Sim.Table.add_row clearing [ "(already balanced)"; "0"; "0 / 0" ]
  | ts ->
      List.iter
        (fun (from_bank, to_bank, amount) ->
          Sim.Table.add_row clearing
            [
              Printf.sprintf "bank %d -> bank %d" from_bank to_bank;
              Sim.Table.cell_int amount;
              Printf.sprintf "%d / %d"
                (Zmail.Federation.position federation ~bank:0)
                (Zmail.Federation.position federation ~bank:1);
            ])
        ts);
  (* A global audit across bank lines stays clean for honest kernels. *)
  let audit =
    Sim.Table.create ~title:"E15: global audit across member banks"
      ~columns:[ "violating pairs"; "suspects" ]
  in
  let requests = Zmail.Federation.start_audit federation in
  let result = ref None in
  List.iter
    (fun (i, signed) ->
      ignore (Zmail.Isp.on_bank_message kernels.(i) signed);
      let reply = Zmail.Isp.thaw kernels.(i) in
      match Zmail.Federation.on_audit_reply federation ~from_isp:i reply with
      | Ok (Some r) -> result := Some r
      | Ok None | Error _ -> ())
    requests;
  (match !result with
  | Some r ->
      Sim.Table.add_row audit
        [
          Sim.Table.cell_int (List.length r.Zmail.Bank.violations);
          (if r.Zmail.Bank.suspects = [] then "-"
           else String.concat "," (List.map string_of_int r.Zmail.Bank.suspects));
        ]
  | None -> Sim.Table.add_row audit [ "incomplete"; "-" ]);
  [ positions; clearing; audit ]
