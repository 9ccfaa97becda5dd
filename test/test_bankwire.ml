(* Fuzz and property tests for the bank-wire threat model (E19's
   kernel-level counterpart): whatever an adversary owning the ISP-bank
   link injects — random bytes, bit-flipped envelopes, wrong-key seals,
   replays — the bank and the federation never raise and never move a
   penny: hostile envelopes are [Rejected], and a replay of a served
   request gets the cached reply.  Plus the clearing-settlement
   properties the federation relies on. *)

let qtest = QCheck_alcotest.to_alcotest

(* Move cash between banks the exactly-once way: a signed transfer
   delivered at its destination. *)
let transfer fed (from_bank, to_bank, amount) =
  let xfer_id = Zmail.Federation.next_xfer_id fed in
  match
    Zmail.Federation.receive_transfer fed
      (Zmail.Federation.sign_transfer fed ~from_bank ~to_bank ~amount ~xfer_id)
  with
  | Ok _ -> ()
  | Error r -> Alcotest.fail (Zmail.Bank.reject_to_string r)

(* Arbitrary drift: cash shuffled between random bank pairs. *)
let drift fed ~n_banks moves =
  List.iter
    (fun (a, b, amount) ->
      let from_bank = a mod n_banks and to_bank = b mod n_banks in
      if from_bank <> to_bank then transfer fed (from_bank, to_bank, amount))
    moves

(* Plan a settlement and land every planned transfer. *)
let settle ?exclude fed =
  let plan = Zmail.Federation.settle_plan ?exclude fed in
  List.iter (transfer fed) plan;
  plan

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* A kernel homed to [bank_public] whose pool buys immediately, so
   [pool_action] yields a genuine sealed buy on demand. *)
let eager_kernel rng ~index ~n_isps ~compliant ~bank_public =
  Zmail.Isp.create rng
    {
      (Zmail.Isp.default_config ~index ~n_isps ~n_users:2 ~compliant
         ~bank_public)
      with
      Zmail.Isp.minavail = 2000;
      maxavail = 4000;
      initial_avail = 1000;
      buy_amount = 500;
    }

let valid_buy kernel =
  match Zmail.Isp.pool_action kernel with
  | Some sealed -> sealed
  | None -> Alcotest.fail "kernel refused to emit a buy"

(* The attack alphabet.  [Short_garbage] is sealed to the *correct*
   key: it unseals fine and must die in [Wire.decode] (0-3 bytes can
   never be a complete payload, so the case is deterministic). *)
type attack = Forged | Flipped | Wrong_key | Short_garbage

let attack_gen =
  QCheck.Gen.oneofl [ Forged; Flipped; Wrong_key; Short_garbage ]

let build_attack rng ~good_key ~good_sealed attack =
  match attack with
  | Forged ->
      Toycrypto.Seal.forge rng
        ~recipient:(Toycrypto.Rsa.key_id good_key)
        ~len:(8 + Sim.Rng.int rng 40)
  | Flipped -> Toycrypto.Seal.flip_bit good_sealed
  | Wrong_key ->
      let pk, _ = Toycrypto.Rsa.generate rng in
      Toycrypto.Seal.seal rng pk (Bytes.of_string "buy 500 nonce 1")
  | Short_garbage ->
      let len = Sim.Rng.int rng 4 in
      let body = Bytes.init len (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
      Toycrypto.Seal.seal rng good_key body

(* ------------------------------------------------------------------ *)
(* Single bank: hostile envelopes are rejected without side effects    *)
(* ------------------------------------------------------------------ *)

let bank_front_door_hostile =
  QCheck.Test.make
    ~name:"bank: hostile envelopes always Rejected, accounts untouched"
    ~count:100
    QCheck.(pair small_nat (make Gen.(list_size (int_range 1 20) attack_gen)))
    (fun (seed, attacks) ->
      let rng = Sim.Rng.create (seed + 1901) in
      let n_isps = 3 in
      let compliant = [| true; true; true |] in
      let bank =
        Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps ~compliant)
      in
      let kernel =
        eager_kernel rng ~index:0 ~n_isps ~compliant
          ~bank_public:(Zmail.Bank.public_key bank)
      in
      let good_sealed = valid_buy kernel in
      let balances () =
        List.init n_isps (fun i -> Zmail.Bank.account_balance bank ~isp:i)
      in
      let before = (balances (), Zmail.Bank.outstanding_epennies bank) in
      let all_rejected =
        List.for_all
          (fun attack ->
            let sealed =
              build_attack rng ~good_key:(Zmail.Bank.public_key bank)
                ~good_sealed attack
            in
            match
              Zmail.Bank.on_isp_message bank ~from_isp:(Sim.Rng.int rng n_isps)
                sealed
            with
            | Zmail.Bank.Rejected _ -> true
            | Zmail.Bank.Reply _ | Zmail.Bank.Audit_progress
            | Zmail.Bank.Audit_complete _ ->
                false)
          attacks
      in
      all_rejected
      && (balances (), Zmail.Bank.outstanding_epennies bank) = before)

(* Every hostile rejection lands in a typed counter: total rejects
   grows by exactly one per attack, and forgeries are Unreadable. *)
let bank_rejects_are_counted =
  QCheck.Test.make ~name:"bank: each hostile envelope increments one counter"
    ~count:100
    QCheck.(pair small_nat (make Gen.(list_size (int_range 1 15) attack_gen)))
    (fun (seed, attacks) ->
      let rng = Sim.Rng.create (seed + 1903) in
      let compliant = [| true; true |] in
      let bank =
        Zmail.Bank.create rng
          (Zmail.Bank.default_config ~n_isps:2 ~compliant)
      in
      let kernel =
        eager_kernel rng ~index:0 ~n_isps:2 ~compliant
          ~bank_public:(Zmail.Bank.public_key bank)
      in
      let good_sealed = valid_buy kernel in
      let total_rejects () =
        List.fold_left
          (fun acc (_, n) -> acc + n)
          0 (Zmail.Bank.stats bank).Zmail.Bank.rejects
      in
      let before = total_rejects () in
      List.iter
        (fun attack ->
          let sealed =
            build_attack rng ~good_key:(Zmail.Bank.public_key bank) ~good_sealed
              attack
          in
          ignore (Zmail.Bank.on_isp_message bank ~from_isp:0 sealed))
        attacks;
      total_rejects () - before = List.length attacks)

(* ------------------------------------------------------------------ *)
(* Federation front door                                               *)
(* ------------------------------------------------------------------ *)

let federation_front_door_hostile =
  QCheck.Test.make
    ~name:
      "federation: hostile + foreign-bank + replayed envelopes: hostile \
       Rejected, replay answered from cache, money exact"
    ~count:80
    QCheck.(pair small_nat (make Gen.(list_size (int_range 1 15) attack_gen)))
    (fun (seed, attacks) ->
      let rng = Sim.Rng.create (seed + 1907) in
      let n_banks = 2 and n_isps = 4 in
      let fed =
        Zmail.Federation.create rng
          (Zmail.Federation.default_config ~n_banks ~n_isps)
      in
      let home0 = Zmail.Federation.home_of fed ~isp:0 in
      let kernel =
        eager_kernel rng ~index:0 ~n_isps ~compliant:(Array.make n_isps true)
          ~bank_public:(Zmail.Federation.public_key fed ~bank:home0)
      in
      (* A legitimate buy first, so the replay below targets a nonce the
         federation has genuinely served. *)
      let good_sealed = valid_buy kernel in
      let good_reply =
        match Zmail.Federation.on_isp_message fed ~from_isp:0 good_sealed with
        | Zmail.Bank.Reply signed -> signed
        | Zmail.Bank.Rejected r ->
            Alcotest.failf "legitimate buy rejected: %s"
              (Zmail.Bank.reject_to_string r)
        | Zmail.Bank.Audit_progress | Zmail.Bank.Audit_complete _ ->
            Alcotest.fail "a buy got an audit response"
      in
      let foreign_bank = (home0 + 1) mod n_banks in
      let snapshot () =
        ( List.init n_isps (fun i ->
              Zmail.Federation.account_balance fed ~isp:i),
          Zmail.Federation.total_outstanding fed,
          Zmail.Federation.total_money fed )
      in
      let before = snapshot () in
      let rejected sealed =
        match Zmail.Federation.on_isp_message fed ~from_isp:0 sealed with
        | Zmail.Bank.Rejected _ -> true
        | Zmail.Bank.Reply _ | Zmail.Bank.Audit_progress | Zmail.Bank.Audit_complete _ ->
            false
      in
      let hostile_ok =
        List.for_all
          (fun attack ->
            rejected
              (build_attack rng
                 ~good_key:(Zmail.Federation.public_key fed ~bank:home0)
                 ~good_sealed attack))
          attacks
      in
      (* Replay of the served buy: the home bank's cached reply.  A buy
         sealed to a foreign member bank: the federation's own typed
         reject. *)
      let replay_ok =
        Zmail.Federation.on_isp_message fed ~from_isp:0 good_sealed
        = Zmail.Bank.Reply good_reply
      in
      let foreign_ok =
        rejected
          (Toycrypto.Seal.seal rng
             (Zmail.Federation.public_key fed ~bank:foreign_bank)
             (Bytes.of_string "misrouted"))
      in
      hostile_ok && replay_ok && foreign_ok && snapshot () = before)

(* ------------------------------------------------------------------ *)
(* Settlement properties                                               *)
(* ------------------------------------------------------------------ *)

(* Arbitrary drift: shuffle cash between random bank pairs (as clearing
   deliveries would), then settle.  Positions must land on the
   federation mean (zero here), money must be conserved exactly, and a
   second settlement must be a no-op. *)
let settle_zeroes_positions =
  QCheck.Test.make
    ~name:"federation settle: arbitrary drift -> zero positions, money exact"
    ~count:120
    QCheck.(
      pair small_nat
        (make
           Gen.(
             pair (int_range 2 6)
               (list_size (int_range 0 20)
                  (triple small_nat small_nat (int_range 1 5000))))))
    (fun (seed, (n_banks, moves)) ->
      let rng = Sim.Rng.create (seed + 1913) in
      let fed =
        Zmail.Federation.create rng
          (Zmail.Federation.default_config ~n_banks ~n_isps:(2 * n_banks))
      in
      let money0 = Zmail.Federation.total_money fed in
      drift fed ~n_banks moves;
      ignore (settle fed);
      let positions =
        List.init n_banks (fun b -> Zmail.Federation.position fed ~bank:b)
      in
      List.for_all (fun p -> p = 0) positions
      && Zmail.Federation.total_money fed = money0
      && settle fed = [])

(* Settling around a Byzantine shard: the excluded bank's position is
   frozen untouched, the honest rest equalize to their own mean (exact
   up to the deterministic +-1 remainder), and money is conserved. *)
let settle_excludes_byzantine_shard =
  QCheck.Test.make
    ~name:"federation settle ~exclude: flagged shard frozen, rest equalize"
    ~count:120
    QCheck.(
      pair small_nat
        (make
           Gen.(
             triple (int_range 3 6)
               (list_size (int_range 1 20)
                  (triple small_nat small_nat (int_range 1 5000)))
               small_nat)))
    (fun (seed, (n_banks, moves, bad)) ->
      let rng = Sim.Rng.create (seed + 1917) in
      let bad = bad mod n_banks in
      let fed =
        Zmail.Federation.create rng
          (Zmail.Federation.default_config ~n_banks ~n_isps:(2 * n_banks))
      in
      let money0 = Zmail.Federation.total_money fed in
      drift fed ~n_banks moves;
      let bad_before = Zmail.Federation.position fed ~bank:bad in
      let transfers = settle ~exclude:[ bad ] fed in
      let included =
        List.filter (fun b -> b <> bad) (List.init n_banks (fun b -> b))
      in
      let positions =
        List.map (fun b -> Zmail.Federation.position fed ~bank:b) included
      in
      let spread =
        List.fold_left max min_int positions
        - List.fold_left min max_int positions
      in
      List.for_all (fun (f, t, _) -> f <> bad && t <> bad) transfers
      && Zmail.Federation.position fed ~bank:bad = bad_before
      && spread <= 1
      && Zmail.Federation.total_money fed = money0)

(* Statement verification: honest books always pass, however the cash
   has drifted through clearing. *)
let honest_statements_always_pass =
  QCheck.Test.make
    ~name:"federation: honest statements pass verification under any drift"
    ~count:120
    QCheck.(
      pair small_nat
        (make
           Gen.(
             pair (int_range 2 6)
               (list_size (int_range 0 20)
                  (triple small_nat small_nat (int_range 1 5000))))))
    (fun (seed, (n_banks, moves)) ->
      let rng = Sim.Rng.create (seed + 1919) in
      let fed =
        Zmail.Federation.create rng
          (Zmail.Federation.default_config ~n_banks ~n_isps:(2 * n_banks))
      in
      drift fed ~n_banks moves;
      Zmail.Federation.verify_statements fed (Zmail.Federation.statements fed)
      = [])

(* ------------------------------------------------------------------ *)
(* Bank-wire tap state codec                                           *)
(* ------------------------------------------------------------------ *)

(* The tap's verdicts depend on its RNG stream and capture buffers, so
   a restored tap must produce byte-identical state and the identical
   verdict sequence — the property world resume determinism leans on. *)
let tap_state_round_trips =
  QCheck.Test.make ~name:"bank-wire tap: state codec round-trips exactly"
    ~count:100
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, which) ->
      let module BW = Zmail.Adversary.Bank_wire in
      let behavior =
        match which with
        | 0 -> BW.Forge_garbage 0.4
        | 1 -> BW.Replay_captured 0.4
        | 2 -> BW.Reorder (0.5, 20.)
        | _ -> BW.Drop_selective (BW.Buy_msg, 0.5)
      in
      let mk k = BW.create (Sim.Rng.create (seed + k)) behavior in
      let tap = mk 0 in
      let traffic_rng = Sim.Rng.create (seed + 7) in
      let envelope () =
        Toycrypto.Seal.forge traffic_rng ~recipient:1
          ~len:(8 + Sim.Rng.int traffic_rng 24)
      in
      for _ = 1 to 12 do
        ignore (BW.on_sealed tap ~kind:BW.Buy_msg (envelope ()))
      done;
      let encode t =
        let w = Persist.Codec.W.create () in
        BW.encode_state w t;
        Persist.Codec.W.contents w
      in
      let blob = encode tap in
      (* Restore into a twin created from a different RNG seed: every
         divergent bit must be overwritten by the restore. *)
      let twin = mk 99 in
      (match Persist.Codec.decode (fun r -> BW.restore_state r twin) blob with
      | Ok () -> ()
      | Error e -> Alcotest.failf "restore failed: %s" e);
      let same_blob = String.equal (encode twin) blob in
      (* Same future: both taps must give the identical verdict run. *)
      let same_future =
        List.for_all
          (fun sealed ->
            BW.on_sealed tap ~kind:BW.Buy_msg sealed
            = BW.on_sealed twin ~kind:BW.Buy_msg sealed)
          (List.init 8 (fun _ -> envelope ()))
      in
      same_blob && same_future)

let () =
  Alcotest.run "bankwire"
    [
      ( "front-door",
        [
          qtest bank_front_door_hostile;
          qtest bank_rejects_are_counted;
          qtest federation_front_door_hostile;
        ] );
      ( "settlement",
        [
          qtest settle_zeroes_positions;
          qtest settle_excludes_byzantine_shard;
          qtest honest_statements_always_pass;
        ] );
      ("tap", [ qtest tap_state_round_trips ]);
    ]
