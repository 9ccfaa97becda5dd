(* Bounded admission queue: a fixed-capacity ring buffer of pending
   remote deliveries for one directed MTA pair.  (This module shadows
   [Stdlib.Queue] inside the [serve] library — deliberately: nothing
   here wants an unbounded queue.) *)

type entry = {
  envelope : Smtp.Envelope.t;
  message : Smtp.Message.t;
  submitted : float;
  attempt : int;
}

type t = {
  capacity : int;
  buf : entry option array;
  mutable head : int;  (* index of the next pop *)
  mutable len : int;
  mutable admitted : int;
  mutable refused : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Serve.Queue.create: capacity must be >= 1";
  {
    capacity;
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    admitted = 0;
    refused = 0;
  }

let capacity t = t.capacity
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len >= t.capacity
let admitted t = t.admitted
let refused t = t.refused

let push t entry =
  if is_full t then begin
    t.refused <- t.refused + 1;
    `Full
  end
  else begin
    t.buf.((t.head + t.len) mod t.capacity) <- Some entry;
    t.len <- t.len + 1;
    t.admitted <- t.admitted + 1;
    `Ok
  end

let pop t =
  if t.len = 0 then None
  else begin
    let e = t.buf.(t.head) in
    t.buf.(t.head) <- None;  (* release the entry for the GC *)
    t.head <- (t.head + 1) mod t.capacity;
    t.len <- t.len - 1;
    e
  end

let iter t f =
  for i = 0 to t.len - 1 do
    match t.buf.((t.head + i) mod t.capacity) with
    | Some e -> f e
    | None -> assert false
  done

(* Entries hold live messages whose codecs do not exist (and whose
   bytes are rebuilt by deterministic replay anyway, like every pending
   engine event); the snapshot carries per-entry metadata — admission
   time, attempt count, wire size — which pins the queue's shape
   byte-for-byte without serializing mail. *)
let encode_state w t =
  let open Persist.Codec.W in
  int w t.capacity;
  int w t.admitted;
  int w t.refused;
  int w t.len;
  iter t (fun e ->
      float w e.submitted;
      int w e.attempt;
      int w (Smtp.Message.size_bytes e.message))
