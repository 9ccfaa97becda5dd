(* Command-line front end of the benchmark; run.py builds and calls it.
   Prints the round statistics, then one JSON line as the last line of
   standard output. *)

let () =
  let workload = ref "" in
  let seed = ref Perfbench.Runner.default_seed in
  let seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Perfbench.Workloads.find !workload with
  | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ " (one of: "
        ^ String.concat ", " (List.map (fun w -> w.Perfbench.Workloads.name) Perfbench.Workloads.all)
        ^ ")");
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
  | Some w ->
      let r =
        Perfbench.Runner.measure ~size:Perfbench.Workloads.Full w ~seed:!seed
          ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
      in
      print_endline (Perfbench.Runner.summary r);
      print_endline (Perfbench.Runner.json r)
