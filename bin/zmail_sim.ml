(* zmail-sim: command-line front end for the Zmail reproduction.

   Subcommands:
     experiment   run one reproduction experiment (or all of them)
     demo         simulate a small Zmail world and print a summary
     explore      exhaustively check the Section-4 protocol spec
     claims       list the paper claims each experiment reproduces

   An experiment id can also be given directly (`zmail-sim e16`), which
   is shorthand for `zmail-sim experiment e16`. *)

open Cmdliner

let seed_arg =
  let doc = "Seed for all randomness (experiments are deterministic per seed)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Record the experiment's event trace and write it to $(docv) at exit."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace file format: $(b,jsonl) (one JSON object per event) or \
     $(b,chrome) (Chrome trace_event JSON, loadable in Perfetto / \
     chrome://tracing)."
  in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FMT" ~doc)

let metrics_arg =
  let doc = "Append the metric-registry table to the experiment output." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let full_arg =
  let doc =
    "Run the nightly-scale variant where one exists: E17 adds its \
     million-user row, E18 raises its adversary grid to 100 ISPs x 1000 \
     users per cell, E19 does the same for its bank-wire grid and grows \
     the federation to 16 member banks, E21 scales its collusion grid, \
     adds the 5-ring plan and appends a 10^4-ISP cell, E23 sweeps every \
     fault level densely under both chaos settings (all take minutes).  \
     Experiments without a larger variant ignore the flag."
  in
  Arg.(value & flag & info [ "full"; "million" ] ~doc)

let checkpoint_every_arg =
  let doc =
    "Write a world snapshot to the $(b,--snapshot) file every $(docv) \
     simulated seconds (E2-E4, E16-E21 and E23 only; any other \
     experiment given a checkpoint flag exits with an error)."
  in
  Arg.(value & opt (some float) None & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc)

let snapshot_arg =
  let doc = "Snapshot file written by --checkpoint-every / --stop-at." in
  Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume from a snapshot file: the run replays deterministically to the \
     snapshot's capture time, byte-verifies the replayed world against it, \
     then continues.  Output is identical to an uninterrupted run."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let stop_at_arg =
  let doc =
    "Stop once simulated time reaches $(docv) seconds, after writing the \
     $(b,--snapshot) file; exits 0."
  in
  Arg.(value & opt (some float) None & info [ "stop-at" ] ~docv:"SECONDS" ~doc)

let domains_arg =
  let doc =
    "Step domain-aware experiments (E17, E22) on $(docv) OCaml domains \
     via the sharded Parworld backend.  Output is byte-identical for \
     every value of $(docv); values above 1 need an OCaml 5 runtime \
     (earlier runtimes fall back to sequential stepping with a stderr \
     note).  Other experiments ignore the flag."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* Shared by the `experiment` subcommand and the default command. *)
let run_experiments id seed full trace trace_format metrics checkpoint_every
    snapshot resume stop_at domains =
  let tracer =
    match trace with
    (* A generous ring: full traces for every experiment here; a long
       organic run keeps its most recent window (dropped count shown). *)
    | Some _ -> Some (Obs.Trace.create ~capacity:262_144 ())
    | None -> None
  in
  let obs = { Obs.Run.tracer; metrics } in
  let id = String.lowercase_ascii id in
  let persist_requested =
    checkpoint_every <> None || snapshot <> None || resume <> None
    || stop_at <> None
  in
  if persist_requested && id = "all" then
    Error
      "--checkpoint-every/--snapshot/--resume/--stop-at need a single \
       experiment id"
  else
    let outcome =
      try
        let persist =
          if persist_requested then
            Harness.Checkpoint.create ?checkpoint_every ?snapshot ?resume
              ?stop_at ~experiment:id ()
          else Harness.Checkpoint.none
        in
        let result =
          if id = "all" then Harness.Experiments.run_all ~seed ~full ~obs ?domains ()
          else Harness.Experiments.run_one ~seed ~full ~obs ~persist ?domains id
        in
        match result with
        | Ok () -> (
            match Harness.Checkpoint.finished persist with
            | Ok () -> `Done
            | Error msg -> `Err ("checkpoint: " ^ msg))
        | Error msg -> `Err msg
      with
      | Harness.Checkpoint.Stopped { time; file } -> `Stopped (time, file)
      | Invalid_argument msg -> `Err msg
    in
    match outcome with
    | `Done ->
        (match (trace, tracer) with
        | Some path, Some tr ->
            let events = Obs.Trace.events tr in
            let doc =
              match trace_format with
              | `Jsonl -> Obs.Export.to_jsonl events
              | `Chrome -> Obs.Export.to_chrome events
            in
            Out_channel.with_open_bin path (fun oc -> output_string oc doc);
            Format.printf
              "trace: %d events written to %s (%d emitted, %d evicted)@."
              (List.length events) path (Obs.Trace.emitted tr)
              (Obs.Trace.dropped tr)
        | _ -> ());
        Ok ()
    | `Stopped (time, file) ->
        (* Partial run: no trace export (the resumed run produces the
           complete, byte-identical one). *)
        Printf.eprintf "checkpoint: run stopped at t=%.0f%s\n%!" time
          (match file with
          | Some f -> Printf.sprintf "; resume with --resume %s" f
          | None -> "");
        Ok ()
    | `Err msg -> Error msg

let verbosity_arg =
  let doc = "Log protocol events ($(docv) = info or debug)." in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"LEVEL" ~doc)

let setup_logs level =
  match level with
  | None -> ()
  | Some name ->
      let level =
        match String.lowercase_ascii name with
        | "debug" -> Logs.Debug
        | "info" -> Logs.Info
        | _ -> Logs.Warning
      in
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level (Some level)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id: e1..e23, or 'all'." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let term =
    Term.(
      term_result'
        (const run_experiments $ id_arg $ seed_arg $ full_arg $ trace_arg
        $ trace_format_arg $ metrics_arg $ checkpoint_every_arg $ snapshot_arg
        $ resume_arg $ stop_at_arg $ domains_arg))
  in
  let doc = "Run a reproduction experiment and print its table(s)" in
  Cmd.v (Cmd.info "experiment" ~doc) term

(* ------------------------------------------------------------------ *)
(* demo                                                                *)
(* ------------------------------------------------------------------ *)

let demo n_isps users days spammers seed log_level =
  setup_logs log_level;
  let world =
    Zmail.World.create
      { (Zmail.World.default_config ~n_isps ~users_per_isp:users) with
        Zmail.World.seed;
        audit_period = Some (12. *. Sim.Engine.hour) }
  in
  Zmail.World.attach_user_traffic world ();
  for k = 0 to spammers - 1 do
    Zmail.World.attach_bulk_sender world ~isp:(k mod n_isps) ~user:0 ~per_day:2000. ()
  done;
  Format.printf "Simulating %d ISPs x %d users for %g days (%d bulk senders)...@."
    n_isps users days spammers;
  Zmail.World.run_days world days;
  let c = Zmail.World.counters world in
  let table =
    Sim.Table.create ~title:"demo: world summary"
      ~columns:[ "metric"; "value" ]
  in
  let add name v = Sim.Table.add_row table [ name; v ] in
  add "legitimate mail delivered" (Sim.Table.cell_int c.Zmail.World.ham_delivered);
  add "spam delivered" (Sim.Table.cell_int c.Zmail.World.spam_delivered);
  add "sends blocked (no e-pennies)" (Sim.Table.cell_int c.Zmail.World.blocked_balance);
  add "sends blocked (daily limit)" (Sim.Table.cell_int c.Zmail.World.blocked_limit);
  add "limit warnings (zombie alarms)" (Sim.Table.cell_int c.Zmail.World.limit_warnings);
  add "sends buffered by audits" (Sim.Table.cell_int c.Zmail.World.deferred_sends);
  add "audits completed"
    (Sim.Table.cell_int (List.length (Zmail.World.audit_results world)));
  add "audit violations"
    (Sim.Table.cell_int
       (List.fold_left
          (fun acc r -> acc + List.length r.Zmail.Bank.violations)
          0 (Zmail.World.audit_results world)));
  let bank_stats = Zmail.Bank.stats (Zmail.World.bank world) in
  add "bank e-penny sales (buys)" (Sim.Table.cell_int bank_stats.Zmail.Bank.buys);
  add "bank buy-backs (sells)" (Sim.Table.cell_int bank_stats.Zmail.Bank.sells);
  add "outstanding e-pennies"
    (Sim.Table.cell_int (Zmail.Bank.outstanding_epennies (Zmail.World.bank world)));
  Sim.Table.print table

let demo_cmd =
  let isps = Arg.(value & opt int 3 & info [ "isps" ] ~docv:"N" ~doc:"Number of ISPs.") in
  let users =
    Arg.(value & opt int 50 & info [ "users" ] ~docv:"N" ~doc:"Users per ISP.")
  in
  let days = Arg.(value & opt float 2. & info [ "days" ] ~docv:"D" ~doc:"Simulated days.") in
  let spammers =
    Arg.(value & opt int 1 & info [ "spammers" ] ~docv:"N" ~doc:"Bulk senders to attach.")
  in
  let term =
    Term.(const demo $ isps $ users $ days $ spammers $ seed_arg $ verbosity_arg)
  in
  let doc = "Simulate a Zmail world and print a summary" in
  Cmd.v (Cmd.info "demo" ~doc) term

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let explore literal max_states =
  let cfg =
    { Zmail.Ap_spec.default_config with
      Zmail.Ap_spec.snapshot =
        (if literal then Zmail.Ap_spec.Paper_literal else Zmail.Ap_spec.Two_phase) }
  in
  Format.printf
    "Exploring the Section-4 protocol (2 ISPs x 2 users, 1 audit, %s snapshot rule)...@."
    (if literal then "paper-literal" else "two-phase");
  match
    Apn.Explore.run ~max_states ~invariant:(Zmail.Ap_spec.all_invariants cfg)
      (Zmail.Ap_spec.build cfg)
  with
  | Apn.Explore.Exhausted { visited } ->
      Format.printf
        "All %d reachable states satisfy conservation, limit, freeze-consistency \
         and audit-cleanliness.@."
        visited
  | Apn.Explore.Bounded { visited } ->
      Format.printf "No violation in the %d states explored (bounded).@." visited
  | Apn.Explore.Violation { trace; detail; _ } ->
      Format.printf "VIOLATION: %s@.witness interleaving:@." detail;
      List.iter (fun step -> Format.printf "  %s@." step) trace

let explore_cmd =
  let literal =
    Arg.(
      value & flag
      & info [ "literal" ]
          ~doc:
            "Use the paper's literal snapshot rule (exhibits the \
             false-accusation race) instead of the sound two-phase variant.")
  in
  let max_states =
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~docv:"N" ~doc:"State budget.")
  in
  let term = Term.(const explore $ literal $ max_states) in
  let doc = "Exhaustively model-check the Section-4 Abstract Protocol spec" in
  Cmd.v (Cmd.info "explore" ~doc) term

(* ------------------------------------------------------------------ *)
(* claims                                                              *)
(* ------------------------------------------------------------------ *)

let claims () =
  List.iter
    (fun e ->
      Format.printf "%-4s %s@.     %s@.@."
        (String.uppercase_ascii e.Harness.Experiments.id)
        e.Harness.Experiments.title e.Harness.Experiments.claim)
    Harness.Experiments.all

let claims_cmd =
  let doc = "List the paper claims each experiment reproduces" in
  Cmd.v (Cmd.info "claims" ~doc) Term.(const claims $ const ())

(* ------------------------------------------------------------------ *)

(* A bare experiment id (`zmail-sim e16 --trace t.json`) is shorthand
   for `zmail-sim experiment e16 ...`: rewrite argv before cmdliner
   sees it.  [Cmd.group] treats an unrecognised first positional as an
   unknown-command error rather than falling through to a default
   term, so the rewrite has to happen up front. *)
let argv =
  let argv = Sys.argv in
  if Array.length argv > 1 then
    let first = String.lowercase_ascii argv.(1) in
    let is_experiment_id =
      first = "all" || Option.is_some (Harness.Experiments.find first)
    in
    if is_experiment_id then
      Array.concat [ [| argv.(0); "experiment" |]; Array.sub argv 1 (Array.length argv - 1) ]
    else argv
  else argv

let () =
  let doc = "Zmail: zero-sum free market control of spam (ICDCS 2005) — reproduction" in
  let info = Cmd.info "zmail-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval ~argv
       (Cmd.group info [ experiment_cmd; demo_cmd; explore_cmd; claims_cmd ]))
