(* ISP 2 is non-compliant: subscribers there never generate acks, which
   models dead/unresponsive addresses as seen from the distributor. *)

type scenario = { label : string; auto_ack : bool; dead : int; live : int; posts : int }

let scenarios =
  [
    { label = "acks on, all live"; auto_ack = true; dead = 0; live = 40; posts = 3 };
    { label = "acks on, 10% dead"; auto_ack = true; dead = 4; live = 36; posts = 3 };
    { label = "acks on, 25% dead"; auto_ack = true; dead = 10; live = 30; posts = 3 };
    { label = "acks OFF (naive Zmail)"; auto_ack = false; dead = 0; live = 40; posts = 3 };
  ]

let run_scenario ~seed s =
  let users_per_isp = 60 in
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps:3 ~users_per_isp) with
        Zmail.World.seed;
        compliant = [| true; true; false |];
        auto_ack = s.auto_ack;
        customize_isp =
          (fun _ c -> { c with Zmail.Isp.initial_balance = 1000; daily_limit = 5000 });
      }
  in
  let checkers = Zmail.World.attach_invariants world in
  let ls = Zmail.World.host_list world ~isp:0 ~user:0 ~list_id:"zmail-news" in
  (* Live subscribers split across the two compliant ISPs; dead ones at
     the non-compliant ISP. *)
  for k = 0 to s.live - 1 do
    let isp = if k mod 2 = 0 then 0 else 1 in
    Zmail.Listserv.subscribe ls (Zmail.World.address world ~isp ~user:(1 + (k / 2)))
  done;
  for k = 0 to s.dead - 1 do
    Zmail.Listserv.subscribe ls (Zmail.World.address world ~isp:2 ~user:k)
  done;
  for _ = 1 to s.posts do
    ignore (Zmail.World.post_to_list world ls ~body:"newsletter issue");
    Zmail.World.run_days world 0.05;
    Zmail.Listserv.note_post_complete ls
  done;
  (* No buy, sell or audit round happens here, so exactly-once and
     cycle-residue have nothing to watch (DESIGN §5). *)
  Cell.finish_live ~name:("E7 " ^ s.label) ~persist:Checkpoint.none
    ~idle:[ "exactly-once"; "cycle-residue" ] ~days:0. world checkers;
  let pruned = Zmail.Listserv.prune ls ~max_missed:3 in
  (ls, pruned)

let run ?(seed = 7) () =
  let table =
    Sim.Table.create
      ~title:
        "E7: mailing-list distributor economics (40-subscriber list + dead \
         addresses, 3 posts through real SMTP)"
      ~columns:
        [
          "scenario";
          "subscribers";
          "e-pennies spent";
          "refunded by acks";
          "net cost";
          "net cost/post";
          "dead pruned";
        ]
  in
  List.iteri
    (fun k s ->
      let ls, pruned = run_scenario ~seed:(seed + k) s in
      let spent = Zmail.Listserv.epennies_spent ls in
      let refunded = Zmail.Listserv.epennies_refunded ls in
      Sim.Table.add_row table
        [
          s.label;
          Sim.Table.cell_int (s.live + s.dead);
          Sim.Table.cell_int spent;
          Sim.Table.cell_int refunded;
          Sim.Table.cell_int (spent - refunded);
          Sim.Table.cell (float_of_int (spent - refunded) /. float_of_int s.posts);
          Sim.Table.cell_int (List.length pruned);
        ])
    scenarios;
  [ table ]
