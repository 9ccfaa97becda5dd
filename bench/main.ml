(* E12: Bechamel micro-benchmarks of the protocol plumbing.

   Usage: main.exe  (no arguments; prints one table of OLS ns/op
   estimates).  The experiment tables E1-E23 come from
   [zmail_sim experiment], and the repository benchmark is perfbench. *)

let kernel_pair () =
  let rng = Sim.Rng.create 42 in
  let compliant = [| true; true |] in
  let bank = Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps:2 ~compliant) in
  let mk i =
    Zmail.Isp.create rng
      { (Zmail.Isp.default_config ~index:i ~n_isps:2 ~n_users:16 ~compliant
           ~bank_public:(Zmail.Bank.public_key bank))
        with
        Zmail.Isp.initial_balance = 1_000_000_000;
        daily_limit = max_int;
      }
  in
  (mk 0, mk 1)

let bench_transfer =
  let isp0, isp1 = kernel_pair () in
  Bechamel.Test.make ~name:"zmail: charge_send + accept_delivery"
    (Bechamel.Staged.stage (fun () ->
         ignore (Zmail.Isp.charge_send isp0 ~sender:3 ~dest_isp:1);
         ignore (Zmail.Isp.accept_delivery isp1 ~from_isp:0 ~rcpt:5)))

let bench_seal =
  let rng = Sim.Rng.create 7 in
  let pk, _ = Toycrypto.Rsa.generate rng in
  let payload = Bytes.of_string "buy 1000 4242424242" in
  Bechamel.Test.make ~name:"crypto: seal (NCR)"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Seal.seal rng pk payload)))

let bench_unseal =
  let rng = Sim.Rng.create 7 in
  let pk, sk = Toycrypto.Rsa.generate rng in
  let sealed = Toycrypto.Seal.seal rng pk (Bytes.of_string "buy 1000 4242424242") in
  Bechamel.Test.make ~name:"crypto: unseal (DCR)"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Seal.unseal sk sealed)))

let bench_sign =
  let rng = Sim.Rng.create 7 in
  let _, sk = Toycrypto.Rsa.generate rng in
  let msg = Bytes.of_string "request 17" in
  Bechamel.Test.make ~name:"crypto: RSA sign"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Rsa.sign sk msg)))

let bench_siphash =
  let buf = Bytes.make 1024 'x' in
  Bechamel.Test.make ~name:"crypto: siphash-2-4 1KiB"
    (Bechamel.Staged.stage (fun () ->
         ignore (Toycrypto.Hash.siphash ~key:(1L, 2L) buf)))

let bench_xtea =
  let rng = Sim.Rng.create 9 in
  let key = Toycrypto.Xtea.random_key rng in
  let buf = Bytes.make 1024 'x' in
  Bechamel.Test.make ~name:"crypto: xtea-cbc encrypt 1KiB"
    (Bechamel.Staged.stage (fun () ->
         ignore (Toycrypto.Xtea.encrypt_cbc key ~iv:42L buf)))

let bench_nonce =
  let g = Toycrypto.Nonce.create (Sim.Rng.create 1) in
  Bechamel.Test.make ~name:"crypto: NNC nonce"
    (Bechamel.Staged.stage (fun () -> ignore (Toycrypto.Nonce.next g)))

let bench_smtp_codec =
  let line = "MAIL FROM:<alice@example.com>" in
  Bechamel.Test.make ~name:"smtp: command parse+print"
    (Bechamel.Staged.stage (fun () ->
         match Smtp.Command.of_line line with
         | Ok c -> ignore (Smtp.Command.to_line c)
         | Error _ -> assert false))

let bench_smtp_session =
  let alice = Smtp.Address.of_string_exn "alice@a.com" in
  let bob = Smtp.Address.of_string_exn "bob@b.com" in
  let envelope = Smtp.Envelope.v ~sender:alice ~recipients:[ bob ] in
  let message =
    Smtp.Message.make_exn ~from:alice ~to_:[ bob ] ~subject:"x" ~body:"hello" ()
  in
  Bechamel.Test.make ~name:"smtp: full client/server session"
    (Bechamel.Staged.stage (fun () ->
         let server =
           Smtp.Server.create ~hostname:"mx.b.com"
             ~policy:(Smtp.Server.default_policy ~local_domains:[ "b.com" ])
         in
         ignore
           (Smtp.Client.deliver (Smtp.Client.of_server server) ~hostname:"mx.a.com"
              envelope message)))

let bench_audit_verify =
  let n = 20 in
  let rng = Sim.Rng.create 3 in
  let reported =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then 0 else Sim.Rng.int rng 100))
  in
  (* Antisymmetric input, so the verify scans every pair cleanly. *)
  let () =
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        reported.(j).(i) <- -reported.(i).(j)
      done
    done
  in
  let compliant = Array.make n true in
  Bechamel.Test.make ~name:"zmail: audit verify 20x20"
    (Bechamel.Staged.stage (fun () ->
         ignore (Zmail.Credit.Audit.verify ~reported ~compliant)))

let bench_hashcash_verify =
  let rng = Sim.Rng.create 4 in
  let stamp, _ = Baselines.Hashcash.mint rng ~recipient:"bob@b.com" ~difficulty:12 in
  Bechamel.Test.make ~name:"baseline: hashcash verify"
    (Bechamel.Staged.stage (fun () -> ignore (Baselines.Hashcash.verify stamp)))

let bench_engine =
  Bechamel.Test.make ~name:"sim: schedule+run 100 events"
    (Bechamel.Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         for k = 1 to 100 do
           ignore (Sim.Engine.schedule e ~at:(float_of_int k) (fun () -> ()))
         done;
         Sim.Engine.run e))

let micro_tests =
  [
    bench_transfer;
    bench_seal;
    bench_unseal;
    bench_sign;
    bench_siphash;
    bench_xtea;
    bench_nonce;
    bench_smtp_codec;
    bench_smtp_session;
    bench_audit_verify;
    bench_hashcash_verify;
    bench_engine;
  ]

let run_micro () =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0) () in
  let table =
    Sim.Table.create ~title:"E12: micro-benchmarks (Bechamel OLS estimates)"
      ~columns:[ "operation"; "ns/op"; "r^2" ]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          let estimate =
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> Printf.sprintf "%.1f" e
            | Some [] | None -> "-"
          in
          let r2 =
            match Analyze.OLS.r_square result with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          Sim.Table.add_row table [ name; estimate; r2 ])
        ols)
    micro_tests;
  Sim.Table.print table

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (takes no arguments)";
    exit 2
  end;
  run_micro ()
