(* OCaml >= 5 backend: real Domain-based fan-out.  Selected by a dune
   rule in lib/sim/dune; see domainpool.mli for the contract.

   Workers are spawned once and reused across [map] calls, parked on a
   condition variable between jobs.  [Domain.spawn]/[Domain.join] cost
   milliseconds per pair on some runtimes (each is a stop-the-world
   synchronisation), which dwarfs a per-barrier world step when paid
   on every call — the persistent pool pays it once per process.  The
   caller always runs slice 0 inline, so a [map ~domains:k] wakes only
   [k - 1] workers. *)

let available = true

exception Worker_failure of exn

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable pending : (unit -> unit) option;
  mutable completed : bool;
  mutable quit : bool;
  mutable handle : unit Domain.t option;
}

let rec worker_loop w =
  Mutex.lock w.mutex;
  while w.pending = None && not w.quit do
    Condition.wait w.cond w.mutex
  done;
  if w.quit then Mutex.unlock w.mutex
  else begin
    let job = Option.get w.pending in
    w.pending <- None;
    Mutex.unlock w.mutex;
    (* Jobs catch their own exceptions (see [map]); the guard here only
       keeps a buggy job from killing the pool. *)
    (try job () with _ -> ());
    Mutex.lock w.mutex;
    w.completed <- true;
    Condition.broadcast w.cond;
    Mutex.unlock w.mutex;
    worker_loop w
  end

(* The pool: grown on demand, serialized by [pool_mutex] (held for the
   whole parallel section — concurrent [map] calls take turns rather
   than fight over workers).  All workers are joined at exit so the
   runtime never tears down with domains still parked. *)
let pool : worker array ref = ref [||]
let pool_mutex = Mutex.create ()
let teardown_registered = ref false

let shutdown () =
  Mutex.lock pool_mutex;
  let workers = !pool in
  pool := [||];
  Mutex.unlock pool_mutex;
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      w.quit <- true;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex;
      match w.handle with Some d -> Domain.join d | None -> ())
    workers

(* Called with [pool_mutex] held. *)
let ensure_workers k =
  let have = Array.length !pool in
  if have < k then begin
    if not !teardown_registered then begin
      teardown_registered := true;
      at_exit shutdown
    end;
    let fresh =
      Array.init (k - have) (fun _ ->
          let w =
            {
              mutex = Mutex.create ();
              cond = Condition.create ();
              pending = None;
              completed = false;
              quit = false;
              handle = None;
            }
          in
          w.handle <- Some (Domain.spawn (fun () -> worker_loop w));
          w)
    in
    pool := Array.append !pool fresh
  end

let submit w job =
  Mutex.lock w.mutex;
  w.pending <- Some job;
  w.completed <- false;
  Condition.broadcast w.cond;
  Mutex.unlock w.mutex

let await w =
  Mutex.lock w.mutex;
  while not w.completed do
    Condition.wait w.cond w.mutex
  done;
  Mutex.unlock w.mutex

let map ~domains f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if domains <= 1 || n = 1 then Array.map f xs
  else begin
    let k = min domains n in
    let results = Array.make n None in
    let failure = Atomic.make None in
    let body w () =
      let i = ref w in
      while !i < n do
        (match Atomic.get failure with
        | Some _ -> ()
        | None -> (
            match f xs.(!i) with
            | v -> results.(!i) <- Some v
            | exception e ->
                ignore (Atomic.compare_and_set failure None (Some e))));
        i := !i + k
      done
    in
    (* Worker w owns indices w, w+k, ... — a static partition, so each
       results slot has exactly one writer, and the completion
       handshake's mutex (or [Array.map] program order, for slice 0)
       gives the happens-before edge that publishes it. *)
    Mutex.lock pool_mutex;
    ensure_workers (k - 1);
    let workers = Array.sub !pool 0 (k - 1) in
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool_mutex)
      (fun () ->
        Array.iteri (fun j w -> submit w (body (j + 1))) workers;
        body 0 ();
        Array.iter await workers);
    (match Atomic.get failure with
    | Some e -> raise (Worker_failure e)
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Domainpool.map: missing result")
      results
  end
