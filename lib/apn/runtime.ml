type 'm tamper = src:Spec.pid -> dst:Spec.pid -> 'm -> 'm list

type ('s, 'm) t = {
  spec : ('s, 'm) Spec.protocol;
  states : 's array;
  chans : 'm Queue.t array array;
  rng : Sim.Rng.t;
  tamper : 'm tamper;
  record_trace : bool;
  mutable executed : int;
  mutable history : (Spec.pid * string) list;
}

let faithful ~src:_ ~dst:_ m = [ m ]

let create ?(seed = 0) ?(tamper = faithful) ?(record_trace = false) spec =
  Spec.validate spec;
  let n = Array.length spec in
  {
    spec;
    states = Array.map (fun (p : ('s, 'm) Spec.process) -> p.init) spec;
    chans = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
    rng = Sim.Rng.create seed;
    tamper;
    record_trace;
    executed = 0;
    history = [];
  }

let state t pid = t.states.(pid)

let channel t ~src ~dst =
  List.rev (Queue.fold (fun acc m -> m :: acc) [] t.chans.(src).(dst))

let inject t ~src ~dst m = Queue.push m t.chans.(src).(dst)

let view t : ('s, 'm) Spec.view =
  {
    outgoing_empty =
      (fun p ->
        let empty = ref true in
        Array.iter (fun q -> if not (Queue.is_empty q) then empty := false) t.chans.(p);
        !empty);
    channel = (fun ~src ~dst -> channel t ~src ~dst);
    state_of = (fun p -> t.states.(p));
  }

(* A candidate is an enabled action together with the channel source it
   would receive from (for receive actions). *)
type candidate = { proc : Spec.pid; index : int; source : Spec.pid option }

let candidates t =
  let n = Array.length t.spec in
  let found = ref [] in
  let global = view t in
  for p = 0 to n - 1 do
    List.iteri
      (fun index action ->
        match (action : ('s, 'm) Spec.action) with
        | Local { enabled; _ } ->
            if enabled t.states.(p) then
              found := { proc = p; index; source = None } :: !found
        | Timeout { enabled; _ } ->
            if enabled global t.states.(p) then
              found := { proc = p; index; source = None } :: !found
        | Receive { accepts; _ } ->
            for src = 0 to n - 1 do
              match Queue.peek_opt t.chans.(src).(p) with
              | Some m when accepts ~src m ->
                  found := { proc = p; index; source = Some src } :: !found
              | Some _ | None -> ()
            done)
      t.spec.(p).actions
  done;
  !found

let enabled_count t = List.length (candidates t)

let perform t cand =
  let process = t.spec.(cand.proc) in
  let action = List.nth process.actions cand.index in
  let state = t.states.(cand.proc) in
  let name = Spec.action_name action in
  let new_state, sends =
    match (action, cand.source) with
    | Spec.Local { apply; _ }, None | Spec.Timeout { apply; _ }, None ->
        apply state
    | Spec.Receive { apply; _ }, Some src ->
        let m = Queue.pop t.chans.(src).(cand.proc) in
        apply state ~src m
    | (Spec.Local _ | Spec.Timeout _), Some _ | Spec.Receive _, None ->
        assert false
  in
  t.states.(cand.proc) <- new_state;
  List.iter
    (fun (dst, m) ->
      List.iter
        (fun m' -> Queue.push m' t.chans.(cand.proc).(dst))
        (t.tamper ~src:cand.proc ~dst m))
    sends;
  t.executed <- t.executed + 1;
  if t.record_trace then t.history <- (cand.proc, name) :: t.history

let step t =
  match candidates t with
  | [] -> false
  | all ->
      let pick = List.nth all (Sim.Rng.int t.rng (List.length all)) in
      perform t pick;
      true

let run ?(max_steps = 100_000) t =
  let rec loop n = if n >= max_steps then (n, false) else if step t then loop (n + 1) else (n, true) in
  loop 0

let trace t = List.rev t.history
