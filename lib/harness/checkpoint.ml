(* Checkpoint / resume driver for world-backed experiments.

   Closures in the event heap cannot be serialized, so resume is
   deterministic replay with byte-verification: the experiment rebuilds
   its world from (experiment, label, seed) exactly as it always does,
   [drive] replays it to the snapshot's capture time, and the replayed
   world's {!Zmail.World.capture} must {!Persist.Snapshot.diff} clean
   against the snapshot before the run continues.  A mismatch means the
   code drifted since the snapshot was written (or the file lies) and
   is a hard failure — never a silently different world.  Byte-equal
   output of resumed and straight-through runs follows by construction:
   segmented [Sim.Engine.run ~until] calls are observationally
   identical to one straight call, and capture itself never mutates
   anything. *)

type t = {
  experiment : string;
  checkpoint_every : float option;
  snapshot_file : string option;
  stop_at : float option;
  mutable pending : Persist.Snapshot.t option;
  mutable driven : int;
  mutable verified : int;
  mutable written : int;
}

exception Stopped of { time : float; file : string option }

let none =
  {
    experiment = "";
    checkpoint_every = None;
    snapshot_file = None;
    stop_at = None;
    pending = None;
    driven = 0;
    verified = 0;
    written = 0;
  }

(* All operator-facing notes go to stderr: stdout must stay
   byte-identical between straight, checkpointed and resumed runs. *)
let note fmt = Printf.eprintf ("checkpoint: " ^^ fmt ^^ "\n%!")

let create ?checkpoint_every ?snapshot ?resume ?stop_at ~experiment () =
  (match checkpoint_every with
  | Some p when p <= 0. ->
      invalid_arg "Checkpoint.create: checkpoint-every must be positive"
  | Some _ | None -> ());
  (match stop_at with
  | Some s when s < 0. -> invalid_arg "Checkpoint.create: stop-at must be non-negative"
  | Some _ | None -> ());
  if checkpoint_every <> None && snapshot = None then
    invalid_arg "Checkpoint.create: --checkpoint-every requires --snapshot";
  if stop_at <> None && snapshot = None then
    invalid_arg "Checkpoint.create: --stop-at requires --snapshot";
  let pending =
    match resume with
    | None -> None
    | Some file -> (
        match Persist.Snapshot.read_file ~path:file with
        | Error e ->
            invalid_arg (Printf.sprintf "Checkpoint: cannot resume from %s: %s" file e)
        | Ok snap ->
            if snap.Persist.Snapshot.experiment <> experiment then
              invalid_arg
                (Printf.sprintf
                   "Checkpoint: %s is a snapshot of experiment %S, not %S" file
                   snap.Persist.Snapshot.experiment experiment);
            note "will resume %s from %s (label %S, seed %d, t=%.0f)" experiment
              file snap.Persist.Snapshot.label snap.Persist.Snapshot.seed
              snap.Persist.Snapshot.time;
            Some snap)
  in
  {
    experiment;
    checkpoint_every;
    snapshot_file = snapshot;
    stop_at;
    pending;
    driven = 0;
    verified = 0;
    written = 0;
  }

let active t =
  t.checkpoint_every <> None || t.snapshot_file <> None || t.pending <> None
  || t.stop_at <> None

let snapshots_written t = t.written
let resumes_verified t = t.verified

let seed_of world = (Zmail.World.config world).Zmail.World.seed

let capture_as t ~label ~time world =
  Persist.Snapshot.v ~experiment:t.experiment ~label ~seed:(seed_of world)
    ~time (Zmail.World.capture world)

let write t ~label ~world =
  match t.snapshot_file with
  | None -> ()
  | Some file ->
      let time = Sim.Engine.now (Zmail.World.engine world) in
      Persist.Snapshot.write_file ~path:file (capture_as t ~label ~time world);
      t.written <- t.written + 1;
      note "wrote %s (label %S, t=%.0f)" file label time

let verify_resume t snap ~label ~world =
  let live = capture_as t ~label ~time:snap.Persist.Snapshot.time world in
  match Persist.Snapshot.diff snap live with
  | Ok () ->
      t.verified <- t.verified + 1;
      note "resume verified: replayed world matches the snapshot at t=%.0f"
        snap.Persist.Snapshot.time
  | Error msg ->
      failwith
        (Printf.sprintf
           "checkpoint: resume verification FAILED (%s) — the replayed world \
            diverged from the snapshot; the code has drifted since it was \
            written, or the snapshot is stale"
           msg)

let drive t ?(label = "") ~world ~days () =
  let engine = Zmail.World.engine world in
  let horizon = Sim.Engine.now engine +. (days *. Sim.Engine.day) in
  if not (active t) then Sim.Engine.run engine ~until:horizon
  else begin
    t.driven <- t.driven + 1;
    (* Resume: the first segment of the matching scenario that spans
       the capture time replays up to it and byte-verifies. *)
    (match t.pending with
    | Some snap
      when snap.Persist.Snapshot.label = label
           && snap.Persist.Snapshot.seed = seed_of world
           && snap.Persist.Snapshot.time <= horizon ->
        Sim.Engine.run engine ~until:snap.Persist.Snapshot.time;
        verify_resume t snap ~label ~world;
        t.pending <- None
    | Some _ | None -> ());
    let stop =
      match t.stop_at with
      | Some s when s <= horizon -> Some (Stdlib.max s (Sim.Engine.now engine))
      | Some _ | None -> None
    in
    let rec advance () =
      let now = Sim.Engine.now engine in
      let tick =
        match t.checkpoint_every with
        | Some p -> Stdlib.min horizon (now +. p)
        | None -> horizon
      in
      let tick, stopping =
        match stop with
        | Some s when s <= tick -> (s, true)
        | Some _ | None -> (tick, false)
      in
      Sim.Engine.run engine ~until:tick;
      if stopping then begin
        write t ~label ~world;
        note "stopping at t=%.0f as requested" tick;
        raise (Stopped { time = tick; file = t.snapshot_file })
      end;
      if tick < horizon then begin
        if t.checkpoint_every <> None then write t ~label ~world;
        advance ()
      end
    in
    advance ()
  end

let finished t =
  match t.pending with
  | None when active t && t.driven = 0 ->
      Error
        (Printf.sprintf
           "experiment %s drove no checkpointed segment, so \
            --checkpoint-every/--snapshot/--resume/--stop-at had no effect \
            (E2-E4, E16-E21 and E23 support them)"
           t.experiment)
  | None -> Ok ()
  | Some snap ->
      Error
        (Printf.sprintf
           "resume snapshot was never reached: no drive segment matched label \
            %S, seed %d, t<=%.0f — wrong experiment arguments?"
           snap.Persist.Snapshot.label snap.Persist.Snapshot.seed
           snap.Persist.Snapshot.time)
