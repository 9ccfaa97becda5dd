(* Domain-parallel stepping: the determinism law (multi-domain ≡
   single-domain, byte-compared through capture) and the incremental
   snapshot machinery (delta + apply ≡ full capture; stale bases are
   refused). *)

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
(* Incremental snapshots                                               *)
(* ------------------------------------------------------------------ *)

let make_world ~seed =
  Zmail.World.create
    {
      (Zmail.World.default_config ~n_isps:6 ~users_per_isp:4) with
      Zmail.World.seed;
    }

let snap ~label world sections =
  Persist.Snapshot.v ~experiment:"test" ~label ~seed:0
    ~time:(Sim.Engine.now (Zmail.World.engine world))
    sections

let delta_of ~base world sections =
  Persist.Snapshot.delta ~base ~experiment:"test" ~label:"d" ~seed:0
    ~time:(Sim.Engine.now (Zmail.World.engine world))
    sections

let test_incremental_matches_full () =
  let world = make_world ~seed:3 in
  (* First incremental capture is full (dirty set starts all-set). *)
  let inc0 = Zmail.World.capture_incremental world in
  Alcotest.(check bool) "first capture is full" true
    (List.for_all (fun (_, b) -> b <> None) inc0);
  let base = snap ~label:"base" world (Zmail.World.capture world) in
  (* Touch a strict subset, then capture incrementally. *)
  Zmail.World.send_email world ~from:(0, 0) ~to_:(1, 1) () |> ignore;
  Zmail.World.run_until_quiet world;
  let inc = Zmail.World.capture_incremental world in
  let dirty_isps =
    List.filter (fun (n, b) -> b <> None && String.length n > 4
                               && String.sub n 0 4 = "isp/") inc
  in
  let clean = List.filter (fun (_, b) -> b = None) inc in
  Alcotest.(check bool) "only touched ISPs serialized" true
    (List.length dirty_isps < 6 && clean <> []);
  (* The delta applied to the base reconstructs the full capture. *)
  let delta =
    match delta_of ~base world inc with
    | Ok d -> d
    | Error e -> Alcotest.fail ("delta: " ^ e)
  in
  Alcotest.(check bool) "is_delta" true (Persist.Snapshot.is_delta delta);
  let full = snap ~label:"d" world (Zmail.World.capture world) in
  (match Persist.Snapshot.apply_delta ~base delta with
  | Error e -> Alcotest.fail ("apply_delta: " ^ e)
  | Ok reconstructed -> (
      match Persist.Snapshot.diff reconstructed full with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("delta+apply <> full capture: " ^ e)));
  (* Delta snapshots survive the file format round trip. *)
  match Persist.Snapshot.of_string (Persist.Snapshot.to_string delta) with
  | Error e -> Alcotest.fail ("delta round trip: " ^ e)
  | Ok d' ->
      Alcotest.(check bool) "round-tripped delta still a delta" true
        (Persist.Snapshot.is_delta d')

let test_incremental_over_stale_base_refused () =
  let world = make_world ~seed:4 in
  ignore (Zmail.World.capture_incremental world) (* reset dirty set *);
  let base = snap ~label:"base" world (Zmail.World.capture world) in
  (* Advance and capture a delta against [base]... *)
  Zmail.World.send_email world ~from:(2, 0) ~to_:(3, 1) () |> ignore;
  Zmail.World.run_until_quiet world;
  let inc = Zmail.World.capture_incremental world in
  let delta =
    match delta_of ~base world inc with
    | Ok d -> d
    | Error e -> Alcotest.fail ("delta: " ^ e)
  in
  (* ...then tamper with a clean base section so the base is stale. *)
  let clean_name =
    match List.find_opt (fun (_, b) -> b = None) inc with
    | Some (n, _) -> n
    | None -> Alcotest.fail "expected at least one clean section"
  in
  let stale =
    {
      base with
      Persist.Snapshot.sections =
        List.map
          (fun (n, b) -> if n = clean_name then (n, b ^ "X") else (n, b))
          base.Persist.Snapshot.sections;
    }
  in
  (match Persist.Snapshot.apply_delta ~base:stale delta with
  | Ok _ -> Alcotest.fail "apply_delta accepted a stale base"
  | Error e ->
      Alcotest.(check bool) "error names staleness" true
        (String.length e > 0));
  (* The pristine base still applies clean. *)
  match Persist.Snapshot.apply_delta ~base delta with
  | Ok reconstructed -> (
      let full = snap ~label:"d" world (Zmail.World.capture world) in
      match Persist.Snapshot.diff reconstructed full with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("pristine base: " ^ e))
  | Error e -> Alcotest.fail ("pristine base refused: " ^ e)

let test_mark_isp_dirty () =
  let world = make_world ~seed:5 in
  ignore (Zmail.World.capture_incremental world);
  let inc = Zmail.World.capture_incremental world in
  Alcotest.(check bool) "all ISP sections clean after reset" true
    (List.for_all
       (fun (n, b) ->
         String.length n < 4 || String.sub n 0 4 <> "isp/" || b = None)
       inc);
  Zmail.World.mark_isp_dirty world 2;
  let inc = Zmail.World.capture_incremental world in
  List.iter
    (fun (n, b) ->
      if String.length n > 4 && String.sub n 0 4 = "isp/" then
        Alcotest.(check bool) (n ^ " dirtiness") (n = "isp/2") (b <> None))
    inc;
  Alcotest.check_raises "out of range"
    (Invalid_argument "World.mark_isp_dirty: index out of range") (fun () ->
      Zmail.World.mark_isp_dirty world 6)

(* The regime dirty tracking exists for: a wide world (400 ISPs x 2
   users) where sixteen funded bulk senders at the low indices fill
   mailboxes everywhere, and then only 1% of the ISPs, quiet receivers
   at the high indices, change between captures.  The delta must skip
   the clean 99%: it encodes to under a fifth of the full snapshot
   (~9% at seed 12; the sections outside the ISPs are always carried),
   where re-encoding every ISP would come near the full size. *)
let test_incremental_one_percent_dirty_is_small () =
  let n_isps = 400 in
  let world =
    Zmail.World.create
      {
        (Zmail.World.default_config ~n_isps ~users_per_isp:2) with
        Zmail.World.seed = 12;
        audit_period = Some (12. *. Sim.Engine.hour);
        customize_isp =
          (fun _ c ->
            { c with Zmail.Isp.initial_balance = 1_000_000; daily_limit = max_int });
      }
  in
  for k = 0 to 15 do
    Zmail.World.attach_bulk_sender world ~isp:k ~user:0 ~per_day:4000. ()
  done;
  Zmail.World.run_days world 1.;
  let base = snap ~label:"base" world (Zmail.World.capture world) in
  ignore (Zmail.World.capture_incremental world);
  for k = 1 to n_isps / 100 do
    Zmail.World.mark_isp_dirty world (n_isps - k)
  done;
  let delta =
    match delta_of ~base world (Zmail.World.capture_incremental world) with
    | Ok d -> d
    | Error e -> Alcotest.fail ("delta: " ^ e)
  in
  let bytes s = String.length (Persist.Snapshot.to_string s) in
  let full = bytes base and delta = bytes delta in
  if 5 * delta > full then
    Alcotest.failf "1%%-dirty delta is %d bytes against a %d-byte full snapshot"
      delta full

let () =
  Alcotest.run "parworld"
    [
      ( "determinism",
        [
          qtest parworld_domain_law;
          Alcotest.test_case "cross mail flows" `Quick
            test_parworld_cross_mail_flows;
        ] );
      ( "incremental snapshots",
        [
          Alcotest.test_case "delta+apply == full" `Quick
            test_incremental_matches_full;
          Alcotest.test_case "stale base refused" `Quick
            test_incremental_over_stale_base_refused;
          Alcotest.test_case "mark_isp_dirty" `Quick test_mark_isp_dirty;
          Alcotest.test_case "1%-dirty delta is small" `Quick
            test_incremental_one_percent_dirty_is_small;
        ] );
    ]
