type event = { id : int; run : unit -> unit; foreground : bool }

type handle = int

type t = {
  mutable clock : float;
  queue : event Heap.t;
  cancelled : Bitset.t;
  queued : Bitset.t;  (* ids currently in the heap *)
  mutable stubs : int;  (* queued entries whose id is cancelled *)
  mutable next_id : int;
  mutable foreground_pending : int;
  mutable fired : int;
  mutable monitor : (id:int -> at:float -> wall:float -> unit) option;
  root_rng : Rng.t;
}

let minute = 60.
let hour = 3600.
let day = 86400.

let create ?(seed = 0) () =
  {
    clock = 0.;
    queue = Heap.create ();
    cancelled = Bitset.create ~capacity:1024 ();
    queued = Bitset.create ~capacity:1024 ();
    stubs = 0;
    next_id = 0;
    foreground_pending = 0;
    fired = 0;
    monitor = None;
    root_rng = Rng.create seed;
  }

let now t = t.clock

let rng t = t.root_rng

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let enqueue t ~priority ev =
  Heap.push t.queue ~priority ev;
  Bitset.set t.queued ev.id

let schedule t ~at f =
  (* Written negated so a NaN time is rejected too: a NaN key has no
     place in the heap's strict (priority, sequence) order. *)
  if not (at >= t.clock) then invalid_arg "Engine.schedule: time is in the past";
  let id = fresh_id t in
  enqueue t ~priority:at { id; run = f; foreground = true };
  t.foreground_pending <- t.foreground_pending + 1;
  id

let schedule_after t ~delay f =
  if not (delay >= 0.) then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) f

let every t ?start ~period f =
  if not (period > 0.) then invalid_arg "Engine.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock +. period in
  (* The recurrence shares one handle: cancelling it marks the id, which
     is checked before each occurrence fires or reschedules.
     Recurrences are background events: a plain [run] does not wait for
     them (they never drain), only [run ~until] executes them. *)
  let id = fresh_id t in
  let rec occurrence at () =
    if not (Bitset.mem t.cancelled id) then begin
      f ();
      if not (Bitset.mem t.cancelled id) then
        enqueue t ~priority:(at +. period)
          { id; run = occurrence (at +. period); foreground = false }
    end
  in
  if not (first >= t.clock) then invalid_arg "Engine.every: start is in the past";
  enqueue t ~priority:first { id; run = occurrence first; foreground = false };
  id

let cancel t handle =
  if not (Bitset.mem t.cancelled handle) then begin
    Bitset.set t.cancelled handle;
    if Bitset.mem t.queued handle then t.stubs <- t.stubs + 1
  end

let pending t = Heap.length t.queue

let live t = Heap.length t.queue - t.stubs

let events_fired t = t.fired

let set_monitor t monitor = t.monitor <- monitor

let step t =
  if Heap.is_empty t.queue then false
  else begin
      let at = Heap.min_prio t.queue in
      let ev = Heap.pop_exn t.queue in
      (* Not [Stdlib.max], which compares through the polymorphic C
         primitive; as with it, a NaN on either side makes [at] win. *)
      t.clock <- (if t.clock >= at then t.clock else at);
      if ev.foreground then t.foreground_pending <- t.foreground_pending - 1;
      Bitset.unset t.queued ev.id;
      if Bitset.mem t.cancelled ev.id then begin
        (* A cancelled stub drains without running; its id is dead (a
           cancelled recurrence never re-queues), so drop the mark too. *)
        t.stubs <- t.stubs - 1;
        Bitset.unset t.cancelled ev.id
      end
      else begin
        (match t.monitor with
        | None -> ev.run ()
        | Some monitor ->
            (* A vDSO read of CLOCK_MONOTONIC: no syscall, no allocation. *)
            let t0 = Monotonic_clock.now () in
            ev.run ();
            let ns = Int64.sub (Monotonic_clock.now ()) t0 in
            monitor ~id:ev.id ~at ~wall:(Int64.to_float ns *. 1e-9));
        t.fired <- t.fired + 1
      end;
      true
  end

(* Snapshot capture.  Closures cannot be serialized, so pending events
   are captured as metadata only — (at, seq, id, foreground) in pop
   order plus the cancellation marks — which is exactly enough to
   byte-compare two engines that are supposed to be in the same state
   (the resume-determinism check).  Nothing decodes it: a resumed world
   is rebuilt by deterministic replay and its capture compared (see
   lib/harness Checkpoint). *)
let encode_state w t =
  let open Persist.Codec.W in
  float w t.clock;
  int w t.next_id;
  int w t.fired;
  int w t.stubs;
  int w t.foreground_pending;
  int w (Heap.next_seq t.queue);
  Rng.encode_state w t.root_rng;
  list
    (fun w (at, seq, ev) ->
      float w at;
      int w seq;
      int w ev.id;
      bool w ev.foreground)
    w (Heap.entries t.queue);
  (* Bitset.elements is already ascending, matching the sorted order the
     snapshot format has always used. *)
  list int w (Bitset.elements t.cancelled)

let run ?until t =
  match until with
  | None ->
      (* Run until all one-shot (foreground) work has drained;
         recurrences alone do not keep the simulation alive. *)
      while t.foreground_pending > 0 && step t do () done
  | Some horizon ->
      let continue = ref true in
      while !continue do
        if (not (Heap.is_empty t.queue)) && Heap.min_prio t.queue <= horizon
        then ignore (step t)
        else continue := false
      done;
      t.clock <- (if t.clock >= horizon then t.clock else horizon)
