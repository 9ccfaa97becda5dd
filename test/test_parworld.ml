(* Domain-parallel stepping: the determinism law (multi-domain ≡
   single-domain, byte-compared through capture), and the sharded
   capture surviving the full snapshot file format. *)

let qtest = QCheck_alcotest.to_alcotest
let hour = Sim.Engine.hour

(* ------------------------------------------------------------------ *)
(* Multi-domain ≡ single-domain                                        *)
(* ------------------------------------------------------------------ *)

let small_config ~groups ~seed ~partitioned =
  {
    (Zmail.Parworld.default_config ~groups ~isps_per_group:3 ~users_per_isp:5)
    with
    Zmail.Parworld.seed;
    days = 1.0;
    window = 12. *. hour;
    cross_fraction = 0.25;
    sends_per_user = 4;
    partitions =
      (if partitioned then function
         (* Group 0's mesh loses ISP 2 across the first merge barrier:
            the window straddles t = 12 h, checking that shard-local
            chaos spanning a barrier stays deterministic. *)
         | 0 -> [ Sim.Fault.Mesh.partition ~start:(11.5 *. hour)
                    ~stop:(12.5 *. hour) ~groups:[| 0; 0; 1; 0 |] ]
         | _ -> []
       else fun _ -> [])
  }

let run_and_capture ~groups ~seed ~domains ~partitioned =
  let pw = Zmail.Parworld.create (small_config ~groups ~seed ~partitioned) in
  Zmail.Parworld.run pw ~domains;
  (Zmail.Parworld.capture pw, Zmail.Parworld.residue pw)

let capture_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, ba) (nb, bb) -> String.equal na nb && String.equal ba bb)
       a b

let parworld_domain_law =
  QCheck.Test.make ~name:"parworld: multi-domain step == single-domain step"
    ~count:6
    QCheck.(pair (int_bound 1000) bool)
    (fun (seed, partitioned) ->
      let reference, residue1 =
        run_and_capture ~groups:4 ~seed ~domains:1 ~partitioned
      in
      if residue1 <> 0 then
        QCheck.Test.fail_reportf "single-domain run leaked %d e-pennies"
          residue1;
      List.for_all
        (fun domains ->
          let candidate, _ =
            run_and_capture ~groups:4 ~seed ~domains ~partitioned
          in
          if not (capture_equal reference candidate) then
            QCheck.Test.fail_reportf
              "capture with %d domains differs from single-domain (seed %d, \
               partitioned %b)"
              domains seed partitioned
          else true)
        [ 2; 4 ])

let test_parworld_cross_mail_flows () =
  let pw =
    Zmail.Parworld.create (small_config ~groups:2 ~seed:5 ~partitioned:false)
  in
  Zmail.Parworld.run pw ~domains:1;
  Alcotest.(check bool) "some cross mail" true (Zmail.Parworld.cross_sent pw > 0);
  Alcotest.(check int) "all cross mail injected"
    (Zmail.Parworld.cross_sent pw)
    (Zmail.Parworld.cross_injected pw);
  Alcotest.(check int) "conservation per shard" 0 (Zmail.Parworld.residue pw);
  Alcotest.(check bool) "audits ran" true (Zmail.Parworld.audits pw > 0);
  Alcotest.(check bool) "mail delivered" true
    (Zmail.Parworld.ham_delivered pw > 0)

(* ------------------------------------------------------------------ *)
(* Full snapshots of a sharded world                                   *)
(* ------------------------------------------------------------------ *)

let test_sharded_capture_round_trip () =
  let pw =
    Zmail.Parworld.create (small_config ~groups:2 ~seed:7 ~partitioned:false)
  in
  Zmail.Parworld.run pw ~domains:2;
  let sections = Zmail.Parworld.capture pw in
  let snap =
    Persist.Snapshot.v ~experiment:"test" ~label:"sharded" ~seed:7 ~time:0.
      sections
  in
  let bytes = Persist.Snapshot.to_string snap in
  match Persist.Snapshot.of_string bytes with
  | Error e -> Alcotest.fail ("round trip: " ^ e)
  | Ok snap' ->
      Alcotest.(check int) "current version" Persist.Snapshot.current_version
        snap'.Persist.Snapshot.version;
      (match Persist.Snapshot.diff snap snap' with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("decoded snapshot differs: " ^ e));
      Alcotest.(check bool) "every shard captured" true
        (List.exists (fun (n, _) -> String.starts_with ~prefix:"g0/" n) sections
        && List.exists (fun (n, _) -> String.starts_with ~prefix:"g1/" n)
             sections);
      Alcotest.(check string) "re-encoding is byte-stable" bytes
        (Persist.Snapshot.to_string snap')

let () =
  Alcotest.run "parworld"
    [
      ( "determinism",
        [
          qtest parworld_domain_law;
          Alcotest.test_case "cross mail flows" `Quick
            test_parworld_cross_mail_flows;
        ] );
      ( "full snapshot capture",
        [
          Alcotest.test_case "sharded round trip" `Quick
            test_sharded_capture_round_trip;
        ] );
    ]
