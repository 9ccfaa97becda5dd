(* Self-test of the benchmark at tiny sizes: every metric is reported
   with its unit, an injected slowdown around send_email is caught by
   ops_per_s and charged to world.send, a forged oracle failure shows in
   ops_failed_frac, and rounds at one seed agree on their statistics. *)

open Perfbench

let measure ?inject ~trace name =
  match Workloads.find name with
  | None -> Alcotest.failf "no workload %s" name
  | Some w -> Runner.measure ?inject ~size:Workloads.Tiny w ~seed:3 ~seconds:0.02 ~trace

let metric r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.Runner.metrics with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "metric %s missing" name

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let end_to_end = [ "setup_s"; "ops_per_s"; "alloc_words_per_op"; "peak_heap_mb" ]

let test_every_metric_printed () =
  let names_by_mode = Hashtbl.create 2 in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = measure ~trace w.Workloads.name in
          Alcotest.(check bool) (w.Workloads.name ^ " correct") true r.Runner.correct;
          let json = Runner.json r in
          let names = List.map (fun (n, _, _) -> n) r.Runner.metrics in
          List.iter
            (fun (n, _, unit) ->
              Alcotest.(check bool) (n ^ " has a unit") true (unit <> "");
              Alcotest.(check bool)
                (n ^ " printed with its unit")
                true
                (contains json (Printf.sprintf "\"%s\": {\"value\": " n)
                && contains json (Printf.sprintf "\"unit\": \"%s\"}" unit)))
            r.Runner.metrics;
          Alcotest.(check int) "names are unique" (List.length names)
            (List.length (List.sort_uniq compare names));
          (* Every workload reports the same metric set in a mode. *)
          match Hashtbl.find_opt names_by_mode trace with
          | None -> Hashtbl.add names_by_mode trace names
          | Some first -> Alcotest.(check (list string)) "same metrics on every workload" first names)
        [ false; true ])
    Workloads.all;
  Alcotest.(check (list string)) "end-to-end set" end_to_end (Hashtbl.find names_by_mode false)

let spin_us us =
  let t0 = Probe.now_ns () in
  while Probe.now_ns () - t0 < us * 1000 do
    ()
  done

let self_times r =
  List.filter_map
    (fun (n, v, _) ->
      if Filename.check_suffix n ".self_s" && n <> "world.send.self_s" then Some (n, v) else None)
    r.Runner.metrics

let test_slowdown_lands_in_send () =
  let delay_us = 100 in
  let slow = { Workloads.no_inject with Workloads.send_delay = (fun () -> spin_us delay_us) } in
  let base = measure ~trace:false "zipf_scale" in
  let slowed = measure ~inject:slow ~trace:false "zipf_scale" in
  let bound = 0.25 in
  Alcotest.(check bool) "ops_per_s falls past its bound" true
    (metric slowed "ops_per_s" < (1. -. bound) *. metric base "ops_per_s");
  let base_t = measure ~trace:true "zipf_scale" in
  let slowed_t = measure ~inject:slow ~trace:true "zipf_scale" in
  let sends = List.assoc "sends.attempted" base_t.Runner.stats in
  let injected = float_of_int (sends * delay_us) *. 1e-6 in
  let grew = metric slowed_t "world.send.self_s" -. metric base_t "world.send.self_s" in
  Alcotest.(check bool)
    (Printf.sprintf "world.send.self_s grew by the injected %.3f s (got %.3f)" injected grew)
    true
    (grew > 0.8 *. injected);
  let before = self_times base_t in
  List.iter
    (fun (n, v) ->
      let d = v -. List.assoc n before in
      Alcotest.(check bool)
        (Printf.sprintf "%s did not absorb the slowdown (+%.4f s)" n d)
        true
        (d < 0.2 *. injected))
    (self_times slowed_t)

let test_forged_failure_counts () =
  let all_fail = { Workloads.no_inject with Workloads.oracle = (fun _ -> false) } in
  let r = measure ~inject:all_fail ~trace:true "zipf_scale" in
  Alcotest.(check bool) "not correct" false r.Runner.correct;
  Alcotest.(check (float 1e-9)) "every op failed" 1. (metric r "ops_failed_frac");
  (* One crash point in three forged: the failures are counted per op,
     not per round. *)
  let k = ref 0 in
  let some_fail =
    { Workloads.no_inject with Workloads.oracle = (fun ok -> incr k; ok && !k mod 3 <> 0) }
  in
  let r = measure ~inject:some_fail ~trace:true "crash_sweep" in
  let frac = metric r "ops_failed_frac" in
  Alcotest.(check bool) (Printf.sprintf "a third failed (%.3f)" frac) true (frac > 0.2 && frac < 0.45);
  Alcotest.(check int) "failed matches the fraction" r.Runner.failed
    (int_of_float (Float.round (frac *. float_of_int r.Runner.attempted)))

let test_rounds_agree () =
  let a = measure ~trace:false "serving_lossy" and b = measure ~trace:true "serving_lossy" in
  Alcotest.(check (list (pair string int))) "same statistics" a.Runner.stats b.Runner.stats;
  Alcotest.(check string) "same capture digest" a.Runner.digest b.Runner.digest;
  Alcotest.(check int) "no failed op" 0 (a.Runner.failed + b.Runner.failed)

let () =
  Alcotest.run "perfbench"
    [
      ( "report",
        [
          Alcotest.test_case "every metric printed with its unit" `Quick test_every_metric_printed;
          Alcotest.test_case "rounds agree at one seed" `Quick test_rounds_agree;
        ] );
      ( "injection",
        [
          Alcotest.test_case "slowdown lands in world.send" `Quick test_slowdown_lands_in_send;
          Alcotest.test_case "forged failure counts" `Quick test_forged_failure_counts;
        ] );
    ]
