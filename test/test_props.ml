(* Cross-cutting property and fuzz tests: randomized adversaries against
   the protocol kernels, codecs, session machines and the engine. *)

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Kernel conservation under random operation sequences                *)
(* ------------------------------------------------------------------ *)

(* Random ops over 3 ISP kernels and a bank.  Every paid send is
   eventually delivered (we deliver immediately, so there is no mail in
   flight), pool exchanges go through the bank, and at every step the
   global invariant holds: sum of ISP e-pennies - initial = bank
   outstanding. *)
let kernel_conservation =
  QCheck.Test.make ~name:"kernels: conservation under random ops" ~count:60
    QCheck.(pair small_nat (list (int_bound 9)))
    (fun (seed, ops) ->
      let rng = Sim.Rng.create (seed + 101) in
      let n_isps = 3 in
      let compliant = [| true; true; true |] in
      let bank = Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps ~compliant) in
      let kernels =
        Array.init n_isps (fun i ->
            Zmail.Isp.create rng
              { (Zmail.Isp.default_config ~index:i ~n_isps ~n_users:3 ~compliant
                   ~bank_public:(Zmail.Bank.public_key bank))
                with
                Zmail.Isp.minavail = 500;
                maxavail = 1500;
                initial_avail = 1000;
                buy_amount = 400;
              })
      in
      let initial =
        Array.fold_left (fun acc k -> acc + Zmail.Isp.total_epennies k) 0 kernels
      in
      let invariant () =
        Array.fold_left (fun acc k -> acc + Zmail.Isp.total_epennies k) 0 kernels
        - initial
        = Zmail.Bank.outstanding_epennies bank
      in
      let exchange i =
        match Zmail.Isp.pool_action kernels.(i) with
        | None -> ()
        | Some sealed -> (
            match Zmail.Bank.on_isp_message bank ~from_isp:i sealed with
            | Zmail.Bank.Reply signed ->
                ignore (Zmail.Isp.on_bank_message kernels.(i) signed)
            | _ -> ())
      in
      let ok = ref (invariant ()) in
      List.iter
        (fun op ->
          let i = Sim.Rng.int rng n_isps in
          let j = Sim.Rng.int rng n_isps in
          let u = Sim.Rng.int rng 3 in
          (match op with
          | 0 | 1 | 2 | 3 ->
              (* A paid (or local) send, delivered immediately. *)
              if Zmail.Isp.charge_send kernels.(i) ~sender:u ~dest_isp:j
                 = Zmail.Isp.Sent_paid
              then
                if i = j then
                  (* Local: the kernel charged the sender; deliver. *)
                  ignore (Zmail.Isp.accept_delivery kernels.(i) ~from_isp:i ~rcpt:u)
                else ignore (Zmail.Isp.accept_delivery kernels.(j) ~from_isp:i ~rcpt:u)
          | 4 ->
              ignore
                (Zmail.Ledger.user_buy (Zmail.Isp.ledger kernels.(i)) ~user:u ~amount:5)
          | 5 ->
              ignore
                (Zmail.Ledger.user_sell (Zmail.Isp.ledger kernels.(i)) ~user:u ~amount:5)
          | 6 -> exchange i
          | 7 -> Zmail.Isp.end_of_day kernels.(i)
          | _ -> ());
          if not (invariant ()) then ok := false)
        ops;
      !ok)

(* After symmetric delivery, credit vectors are antisymmetric. *)
let kernel_antisymmetry =
  QCheck.Test.make ~name:"kernels: credit antisymmetry after full delivery"
    ~count:60
    QCheck.(pair small_nat (small_list (pair (int_bound 2) (int_bound 2))))
    (fun (seed, sends) ->
      let rng = Sim.Rng.create (seed + 202) in
      let n_isps = 3 in
      let compliant = [| true; true; true |] in
      let bank = Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps ~compliant) in
      let kernels =
        Array.init n_isps (fun i ->
            Zmail.Isp.create rng
              (Zmail.Isp.default_config ~index:i ~n_isps ~n_users:2 ~compliant
                 ~bank_public:(Zmail.Bank.public_key bank)))
      in
      List.iter
        (fun (i, j) ->
          if Zmail.Isp.charge_send kernels.(i) ~sender:0 ~dest_isp:j = Zmail.Isp.Sent_paid
             && i <> j
          then ignore (Zmail.Isp.accept_delivery kernels.(j) ~from_isp:i ~rcpt:0))
        sends;
      let ok = ref true in
      for a = 0 to n_isps - 1 do
        for b = 0 to n_isps - 1 do
          if a <> b then begin
            let va = (Zmail.Isp.credit_vector kernels.(a)).(b) in
            let vb = (Zmail.Isp.credit_vector kernels.(b)).(a) in
            if va + vb <> 0 then ok := false
          end
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* SMTP server fuzzing                                                 *)
(* ------------------------------------------------------------------ *)

let printable_line =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 60))

let smtp_command_line =
  QCheck.Gen.oneofl
    [
      "HELO fuzz.example";
      "MAIL FROM:<a@b.com>";
      "RCPT TO:<bob@b.com>";
      "RCPT TO:<eve@evil.com>";
      "DATA";
      ".";
      "..stuffed";
      "RSET";
      "NOOP";
      "QUIT";
      "";
      "Subject: x";
    ]

let server_fuzz =
  QCheck.Test.make ~name:"smtp server: never raises, replies always valid"
    ~count:300
    QCheck.(
      make
        Gen.(list_size (int_range 0 40) (oneof [ smtp_command_line; printable_line ])))
    (fun lines ->
      let server =
        Smtp.Server.create ~hostname:"mx.b.com"
          ~policy:(Smtp.Server.default_policy ~local_domains:[ "b.com" ])
      in
      List.for_all
        (fun line ->
          match Smtp.Server.on_line server line with
          | None -> true
          | Some reply -> reply.Smtp.Reply.code >= 200 && reply.Smtp.Reply.code <= 599)
        lines)

(* Any message the server accepts parses back into a message whose
   recipients are local. *)
let server_accepts_only_local =
  QCheck.Test.make ~name:"smtp server: accepted envelopes are local" ~count:100
    QCheck.(
      make Gen.(list_size (int_range 5 50) (oneof [ smtp_command_line; printable_line ])))
    (fun lines ->
      let server =
        Smtp.Server.create ~hostname:"mx.b.com"
          ~policy:(Smtp.Server.default_policy ~local_domains:[ "b.com" ])
      in
      List.iter (fun line -> ignore (Smtp.Server.on_line server line)) lines;
      List.for_all
        (fun (env, _) ->
          List.for_all
            (fun r -> Smtp.Address.domain r = "b.com")
            (Smtp.Envelope.recipients env))
        (Smtp.Server.take_received server))

(* ------------------------------------------------------------------ *)
(* Codec fuzzing                                                       *)
(* ------------------------------------------------------------------ *)

let wire_decode_total =
  QCheck.Test.make ~name:"wire decode: total on arbitrary strings" ~count:500
    QCheck.string
    (fun s ->
      match Zmail.Wire.decode s with Ok _ | Error _ -> true)

let wire_payload_gen =
  QCheck.Gen.(
    let nonce = map Int64.of_int small_nat in
    oneof
      [
        map2 (fun amount nonce -> Zmail.Wire.Buy { amount; nonce }) small_nat nonce;
        map2 (fun nonce accepted -> Zmail.Wire.Buy_reply { nonce; accepted }) nonce bool;
        map2 (fun amount nonce -> Zmail.Wire.Sell { amount; nonce }) small_nat nonce;
        map (fun nonce -> Zmail.Wire.Sell_reply { nonce }) nonce;
        map (fun seq -> Zmail.Wire.Audit_request { seq }) small_nat;
        map3
          (fun isp seq credit ->
            Zmail.Wire.Audit_reply { isp; seq; credit = Array.of_list credit })
          small_nat small_nat
          (* Sparse (peer, claim) cells; zero claims are legal on the
             wire — tampered rows need not be canonical. *)
          (list_size (int_range 0 8)
             (pair (int_range 0 9999) (int_range (-100) 100)));
      ])

let wire_round_trip =
  QCheck.Test.make ~name:"wire: encode |> decode is the identity" ~count:500
    (QCheck.make ~print:Zmail.Wire.encode wire_payload_gen)
    (fun payload ->
      match Zmail.Wire.decode (Zmail.Wire.encode payload) with
      | Ok decoded -> payload = decoded
      | Error _ -> false)

(* [Wire.encode] as it was written with [Printf], before the
   hand-written decimal writer: the sealed and signed bytes are these,
   so the library must reproduce them exactly. *)
let wire_encode_reference = function
  | Zmail.Wire.Buy { amount; nonce } -> Printf.sprintf "buy %d %Ld" amount nonce
  | Buy_reply { nonce; accepted } -> Printf.sprintf "buyreply %Ld %b" nonce accepted
  | Sell { amount; nonce } -> Printf.sprintf "sell %d %Ld" amount nonce
  | Sell_reply { nonce } -> Printf.sprintf "sellreply %Ld" nonce
  | Audit_request { seq } -> Printf.sprintf "request %d" seq
  | Audit_reply { isp; seq; credit } ->
      Printf.sprintf "reply %d %d %s" isp seq
        (if Array.length credit = 0 then "-"
         else
           String.concat ","
             (Array.to_list (Array.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) credit)))
  | Transfer { from_bank; to_bank; amount; xfer_id } ->
      Printf.sprintf "transfer %d %d %d %d" from_bank to_bank amount xfer_id
  | Transfer_ack { xfer_id } -> Printf.sprintf "transferack %d" xfer_id

(* Every constructor, with the extremes drawn often: [min_int],
   [max_int] and the int64 limits (nonces beyond the int range take
   the writer's split path), empty rows, rows of explicit zeros and
   rows of 10^3 cells. *)
let wire_any_payload_gen =
  QCheck.Gen.(
    let int =
      frequency
        [
          (3, oneofl [ min_int; max_int; 0; -1; 1; 9; 10; -10; min_int + 1 ]);
          (3, int);
          (2, small_signed_int);
        ]
    in
    let nonce =
      frequency
        [
          (2, oneofl [ Int64.min_int; Int64.max_int; 0L; -1L ]);
          (2, map Int64.of_int (oneofl [ min_int; max_int ]));
          (3, ui64);
          (1, map Int64.of_int small_nat);
        ]
    in
    let row =
      frequency
        [
          (1, return [||]);
          (1, map (fun n -> Array.init n (fun p -> (p, 0))) (int_range 1 5));
          (3, array_size (int_range 1 8) (pair int int));
          (1, array_size (return 1000) (pair int int));
        ]
    in
    oneof
      [
        map2 (fun amount nonce -> Zmail.Wire.Buy { amount; nonce }) int nonce;
        map2 (fun nonce accepted -> Zmail.Wire.Buy_reply { nonce; accepted }) nonce bool;
        map2 (fun amount nonce -> Zmail.Wire.Sell { amount; nonce }) int nonce;
        map (fun nonce -> Zmail.Wire.Sell_reply { nonce }) nonce;
        map (fun seq -> Zmail.Wire.Audit_request { seq }) int;
        map3 (fun isp seq credit -> Zmail.Wire.Audit_reply { isp; seq; credit }) int int row;
        map2
          (fun (from_bank, to_bank) (amount, xfer_id) ->
            Zmail.Wire.Transfer { from_bank; to_bank; amount; xfer_id })
          (pair int int) (pair int int);
        map (fun xfer_id -> Zmail.Wire.Transfer_ack { xfer_id }) int;
      ])

let wire_encode_matches_printf =
  QCheck.Test.make ~name:"wire: encode is byte-identical to the Printf formats"
    ~count:1000
    (QCheck.make ~print:wire_encode_reference wire_any_payload_gen)
    (fun payload -> String.equal (Zmail.Wire.encode payload) (wire_encode_reference payload))

let wire_byte_flip_never_raises =
  (* The link's corruptor flips one byte of an encoded payload.  The
     codec must stay total: whatever comes back is Ok or Error, never
     an exception — the fault layer relies on this. *)
  QCheck.Test.make ~name:"wire: single byte flips never raise" ~count:500
    (QCheck.make
       QCheck.Gen.(triple wire_payload_gen small_nat (int_range 1 255)))
    (fun (payload, pos, mask) ->
      let encoded = Bytes.of_string (Zmail.Wire.encode payload) in
      let pos = pos mod Bytes.length encoded in
      Bytes.set encoded pos
        (Char.chr (Char.code (Bytes.get encoded pos) lxor mask));
      match Zmail.Wire.decode (Bytes.to_string encoded) with
      | Ok _ | Error _ -> true)

let wire_tag_corruption_detected =
  (* Corrupting the leading tag token cannot decode successfully: the
     tag set is closed, so a flipped tag is a parse error. *)
  QCheck.Test.make ~name:"wire: corrupted tag token is rejected" ~count:500
    (QCheck.make QCheck.Gen.(pair wire_payload_gen (int_range 1 255)))
    (fun (payload, mask) ->
      let encoded = Bytes.of_string (Zmail.Wire.encode payload) in
      Bytes.set encoded 0 (Char.chr (Char.code (Bytes.get encoded 0) lxor mask));
      match Zmail.Wire.decode (Bytes.to_string encoded) with
      | Ok decoded -> payload = decoded = false
      | Error _ -> true)

let command_decode_total =
  QCheck.Test.make ~name:"smtp command decode: total on arbitrary strings"
    ~count:500 QCheck.string
    (fun s ->
      match Smtp.Command.of_line s with Ok _ | Error _ -> true)

let reply_decode_total =
  QCheck.Test.make ~name:"smtp reply decode: total on arbitrary strings"
    ~count:500 QCheck.string
    (fun s -> match Smtp.Reply.of_line s with Ok _ | Error _ -> true)

let message_parse_total =
  QCheck.Test.make ~name:"message parse: total on arbitrary line lists" ~count:300
    QCheck.(list (make printable_line))
    (fun lines ->
      match Smtp.Message.of_lines lines with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Seal corruption                                                     *)
(* ------------------------------------------------------------------ *)

let seal_corruption_detected =
  (* Flipping any ciphertext bit must never yield a valid decryption of
     anything (the MAC covers the whole ciphertext). *)
  QCheck.Test.make ~name:"seal: arbitrary ciphertext bit flips detected" ~count:150
    QCheck.(pair small_nat small_string)
    (fun (seed, payload) ->
      let rng = Sim.Rng.create (seed + 909) in
      let pk, sk = Toycrypto.Rsa.generate rng in
      let sealed = Toycrypto.Seal.seal rng pk (Bytes.of_string payload) in
      let corrupted = Toycrypto.Seal.flip_bit sealed in
      if String.length payload = 0 then true
      else Toycrypto.Seal.unseal sk corrupted = None)

(* ------------------------------------------------------------------ *)
(* Engine ordering                                                     *)
(* ------------------------------------------------------------------ *)

let engine_ordering =
  QCheck.Test.make ~name:"engine: callbacks run in non-decreasing time order"
    ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let e = Sim.Engine.create () in
      let seen = ref [] in
      List.iter
        (fun at -> ignore (Sim.Engine.schedule e ~at (fun () -> seen := at :: !seen)))
        times;
      Sim.Engine.run e;
      let order = List.rev !seen in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted order && List.length order = List.length times)

(* ------------------------------------------------------------------ *)
(* Random exploration of random small protocols                        *)
(* ------------------------------------------------------------------ *)

let random_workload_gen =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (a, b, c, d) -> (a mod 2, b mod 2, c mod 2, d mod 2))
         (quad small_nat small_nat small_nat small_nat)))

let ap_spec_random_configs =
  QCheck.Test.make ~name:"ap_spec: invariants hold for random small workloads"
    ~count:25
    QCheck.(make random_workload_gen)
    (fun workload ->
      let cfg = { Zmail.Ap_spec.default_config with Zmail.Ap_spec.workload } in
      match
        Apn.Explore.run ~max_states:50_000
          ~invariant:(Zmail.Ap_spec.all_invariants cfg)
          (Zmail.Ap_spec.build cfg)
      with
      | Apn.Explore.Exhausted _ | Apn.Explore.Bounded _ -> true
      | Apn.Explore.Violation _ -> false)

(* ------------------------------------------------------------------ *)
(* Listserv bookkeeping                                                *)
(* ------------------------------------------------------------------ *)

let listserv_refunds_bounded =
  (* Refunds never exceed spending, whatever the ack pattern, and
     spending is exactly posts x live roster size at each post. *)
  QCheck.Test.make ~name:"listserv: refunds never exceed spending" ~count:200
    QCheck.(pair (int_bound 5) (list (int_bound 9)))
    (fun (posts, ackers) ->
      let addr k = Smtp.Address.v ~local:(Printf.sprintf "s%d" k) ~domain:"x.com" in
      let ls = Zmail.Listserv.create ~list_id:"l" ~address:(addr 99) in
      for k = 0 to 9 do
        Zmail.Listserv.subscribe ls (addr k)
      done;
      for _ = 1 to posts do
        ignore (Zmail.Listserv.distribute ls ~body:"b" ());
        List.iter
          (fun k -> ignore (Zmail.Listserv.on_ack ls ~from:(addr k) ~list_id:"l"))
          ackers;
        Zmail.Listserv.note_post_complete ls
      done;
      Zmail.Listserv.epennies_refunded ls <= Zmail.Listserv.epennies_spent ls
      && Zmail.Listserv.epennies_spent ls = posts * 10
      && Zmail.Listserv.net_cost ls >= 0)

let mailbox_order_preserved =
  QCheck.Test.make ~name:"mailbox: delivery order preserved" ~count:200
    QCheck.(small_list small_string)
    (fun bodies ->
      let mb = Smtp.Mailbox.create () in
      let who = Smtp.Address.v ~local:"u" ~domain:"x.com" in
      let from = Smtp.Address.v ~local:"f" ~domain:"y.com" in
      List.iteri
        (fun k body ->
          Smtp.Mailbox.deliver mb who ~time:(float_of_int k)
            (Smtp.Message.make_exn ~from ~to_:[ who ] ~body ()))
        bodies;
      List.map Smtp.Message.body (Smtp.Mailbox.messages mb who) = bodies)

let dns_last_registration_wins =
  QCheck.Test.make ~name:"dns: last registration wins" ~count:200
    QCheck.(small_list (pair (int_bound 3) (int_bound 5)))
    (fun bindings ->
      let d = Smtp.Dns.create () in
      List.iter
        (fun (dom, host) ->
          Smtp.Dns.register d ~domain:(Printf.sprintf "d%d.com" dom) host)
        bindings;
      List.for_all
        (fun (dom, _) ->
          let domain = Printf.sprintf "d%d.com" dom in
          let expected =
            List.fold_left
              (fun acc (d', h) -> if d' = dom then Some h else acc)
              None bindings
          in
          Smtp.Dns.lookup d ~domain = expected)
        bindings)

let () =
  Alcotest.run "props"
    [
      ( "kernels",
        [ qtest kernel_conservation; qtest kernel_antisymmetry ] );
      ( "smtp",
        [
          qtest server_fuzz;
          qtest server_accepts_only_local;
          qtest command_decode_total;
          qtest reply_decode_total;
          qtest message_parse_total;
        ] );
      ( "wire",
        [
          qtest wire_decode_total;
          qtest wire_round_trip;
          qtest wire_encode_matches_printf;
          qtest wire_byte_flip_never_raises;
          qtest wire_tag_corruption_detected;
        ] );
      ("seal", [ qtest seal_corruption_detected ]);
      ("engine", [ qtest engine_ordering ]);
      ("exploration", [ qtest ap_spec_random_configs ]);
      ( "stores",
        [
          qtest listserv_refunds_bounded;
          qtest mailbox_order_preserved;
          qtest dns_last_registration_wins;
        ] );
    ]
