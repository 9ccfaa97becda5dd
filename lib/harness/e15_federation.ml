(* E15 (extension): §5's "set of distributed banks" on the World.  Four
   ISPs homed round-robin to two member banks.  Bank 0's members (ISPs
   0 and 2) send far more mail to bank 1's members than they receive
   back, so e-pennies migrate across the bank line; receivers cash
   their windfall out to their ISP pools, whose sells then drain bank
   1's cash.  A daily audit round spans both banks,
   and the imbalance is cleared over a reliable two-bank mesh by
   [Zmail.Clearing], driven on the world's engine. *)

let day = Sim.Engine.day
let days = 14
let n_isps = 4

(* Five users per ISP, daily audits, and lean pools with generous
   limits, so the pools cross their bands and trade with their home
   banks every few days. *)
let config ~seed (banks : Zmail.Federation.config) =
  {
    (Zmail.World.default_config ~n_isps:banks.n_isps ~users_per_isp:5) with
    Zmail.World.seed;
    audit_period = Some day;
    banks;
    customize_isp =
      (fun _ cfg ->
        {
          cfg with
          Zmail.Isp.initial_balance = 400;
          daily_limit = 10_000;
          minavail = 200;
          maxavail = 900;
          initial_avail = 500;
          buy_amount = 500;
        });
  }

(* Each day: [forward] paid messages from [senders] (user 0) to
   [receivers] (user 0), [reverse] back (user 1 to user 1), spread over
   the day; then every user above 450 e-pennies sells down to 400. *)
let attach_flow world ~rng ~days ~senders ~receivers ~forward ~reverse =
  let engine = Zmail.World.engine world in
  let pick l = List.nth l (Sim.Rng.int rng (List.length l)) in
  let per_day = forward + reverse in
  for d = 0 to days - 1 do
    for k = 0 to per_day - 1 do
      let at = (float_of_int d +. (0.9 *. float_of_int k /. float_of_int per_day)) *. day in
      ignore
        (Sim.Engine.schedule_after engine ~delay:at (fun () ->
             let from, to_, u =
               if k < forward then (pick senders, pick receivers, 0)
               else (pick receivers, pick senders, 1)
             in
             ignore (Zmail.World.send_email world ~from:(from, u) ~to_:(to_, u) ())))
    done;
    ignore
      (Sim.Engine.schedule_after engine ~delay:((float_of_int d +. 0.95) *. day)
         (fun () ->
           for i = 0 to (Zmail.World.config world).Zmail.World.n_isps - 1 do
             let ledger = Zmail.Isp.ledger (Zmail.World.isp world i) in
             for user = 0 to (Zmail.World.config world).Zmail.World.users_per_isp - 1 do
               let balance = Zmail.Ledger.balance ledger ~user in
               if balance > 450 then
                 ignore (Zmail.Ledger.user_sell ledger ~user ~amount:(balance - 400))
             done
           done))
  done

let run ?(seed = 15) () =
  let world =
    Zmail.World.create (config ~seed (Zmail.Federation.default_config ~n_banks:2 ~n_isps))
  in
  let checkers = Zmail.World.attach_invariants world in
  let fed = Zmail.World.federation world in
  let money = Zmail.Federation.total_money fed in
  attach_flow world
    ~rng:(Sim.Rng.stream ~seed ~tag:0xfed15)
    ~days ~senders:[ 0; 2 ] ~receivers:[ 1; 3 ] ~forward:120 ~reverse:15;
  Zmail.World.run_until_quiet world;
  let positions =
    Sim.Table.create
      ~title:
        "E15 (extension): two member banks after 14 days of asymmetric \
         cross-bank mail"
      ~columns:
        [ "bank"; "e-pennies issued - redeemed"; "cash position vs fair share" ]
  in
  List.iter
    (fun b ->
      Sim.Table.add_row positions
        [
          Printf.sprintf "bank %d" b;
          Sim.Table.cell_int (Zmail.Federation.outstanding fed ~bank:b);
          Sim.Table.cell_int (Zmail.Federation.position fed ~bank:b);
        ])
    [ 0; 1 ];
  (* Settle through the clearing driver on a reliable two-bank mesh,
     and let every transfer land before reading the positions. *)
  let engine = Zmail.World.engine world in
  let mesh =
    Sim.Fault.Mesh.create ~n_nodes:2 engine (Sim.Rng.stream ~seed ~tag:0xc1ea7)
  in
  let clr = Zmail.Clearing.create ~engine ~mesh fed in
  let transfers = Zmail.Clearing.settle_round clr in
  Cell.drain ~name:"E15" world checkers;
  if Zmail.Federation.total_money fed <> money then
    failwith "E15: money not conserved";
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
                (Zmail.Federation.position fed ~bank:0)
                (Zmail.Federation.position fed ~bank:1);
            ])
        ts);
  (* Every daily round checked pairs across the bank line; honest
     kernels keep them all clean. *)
  let audit =
    Sim.Table.create ~title:"E15: daily audits across member banks"
      ~columns:[ "violating pairs"; "suspects" ]
  in
  let results = Zmail.World.audit_results world in
  let suspects =
    List.sort_uniq Int.compare
      (List.concat_map (fun r -> r.Zmail.Bank.suspects) results)
  in
  Sim.Table.add_row audit
    [
      Sim.Table.cell_int
        (List.fold_left (fun acc r -> acc + List.length r.Zmail.Bank.violations) 0 results);
      (if suspects = [] then "-" else String.concat "," (List.map string_of_int suspects));
    ];
  [ positions; clearing; audit ]
