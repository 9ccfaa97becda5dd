type phase = Instant | Begin | End

type payload =
  | Isp_charge of { user : int; dest : int }
  | Isp_refund of { user : int; dest : int }
  | Isp_settle of { from : int; rcpt : int }
  | Isp_mint of { peer : int; user : int }
  | Isp_buy_begin of { nonce : int; amount : int }
  | Isp_buy_end of { accepted : bool }
  | Isp_sell_begin of { nonce : int; amount : int }
  | Isp_sell_end of { accepted : bool }
  | Isp_buy_apply of { nonce : int; amount : int; accepted : bool }
  | Isp_sell_apply of { nonce : int; amount : int; taken : int }
  | Isp_freeze of { seq : int }
  | Isp_thaw of { seq : int }
  | Credit_send of { peer : int }
  | Credit_recv of { peer : int }
  | Credit_recv_early of { peer : int; epoch : int }
  | Credit_recv_amended of { peer : int; epoch : int }
  | Credit_cancel of { peer : int }
  | Credit_fold of { upto : int; count : int }
  | Credit_reset of { promoted : int }
  | Bank_buy of { isp : int; nonce : int; amount : int; accepted : bool }
  | Bank_buy_replay of { isp : int; nonce : int; amount : int }
  | Bank_sell of { isp : int; nonce : int; amount : int }
  | Bank_sell_replay of { isp : int; nonce : int; amount : int }
  | Bank_audit_reply of { isp : int; seq : int; amended : bool }
  | Bank_reject of { isp : int; reason : string }
  | Bank_audit_begin of { seq : int; absent : int }
  | Bank_audit_end of {
      seq : int;
      violations : int;
      suspects : int;
      absent : int;
      rings : int;
      convicted : int;
      cleared : int;
      lied_volume : int;
      ring_volume : int;
      convicted_isps : int list;
      ring_isps : int list;
      cleared_isps : int list;
    }
  | World_retransmit of { timeout : float }
  | World_bankwire_drop of { kind : string }
  | World_bankwire_delay of { delay : float }
  | World_bankwire_inject of { kind : string }
  | World_audit_deferred_bank_down
  | World_audit_deferred of { unreachable : int }
  | World_recover_failed of { why : string }
  | World_crash of { downtime : float }
  | World_recover
  | World_bank_crash of { downtime : float }
  | World_bank_recover
  | World_backpressured
  | World_refused_down
  | World_deferred
  | Obs_checkpoint of {
      total : int;
      outstanding : int;
      minted : int;
      quiescent : bool;
    }

type event = {
  seq : int;
  time : float;
  actor : int;
  phase : phase;
  span : int;
  payload : payload;
}

(* Placeholder for unwritten ring slots, so the ring is a plain
   [event array] and storing a record is one array write with no
   [Some] box.  Never returned: reads are bounded by [stored]. *)
let sentinel =
  { seq = -1; time = 0.; actor = -1; phase = Instant; span = 0;
    payload = World_recover }

type t = {
  capacity : int;
  ring : event array;  (* length = max capacity 1; indexed seq-modulo *)
  mutable sinks : (event -> unit) list;
  mutable clock : unit -> float;
  mutable next_seq : int;
  mutable stored : int;  (* events ever stored in the ring *)
  mutable next_span : int;
  inert : bool;  (* the shared [none] tracer: never activatable *)
}

let make ~capacity ~inert =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  {
    capacity;
    ring = Array.make (Stdlib.max capacity 1) sentinel;
    sinks = [];
    clock = (fun () -> 0.);
    next_seq = 0;
    stored = 0;
    next_span = 0;
    inert;
  }

let create ?(capacity = 4096) () = make ~capacity ~inert:false

let none = make ~capacity:0 ~inert:true

let active t = (not t.inert) && (t.capacity > 0 || t.sinks <> [])

let set_clock t clock = t.clock <- clock

let subscribe t sink =
  if t.inert then invalid_arg "Trace.subscribe: cannot subscribe to Trace.none";
  t.sinks <- t.sinks @ [ sink ]

let unsubscribe t sink = t.sinks <- List.filter (fun s -> s != sink) t.sinks

(* A direct loop: [List.iter] with a closure over [ev] would allocate
   that closure on every event. *)
let rec notify ev = function
  | [] -> ()
  | sink :: rest ->
      sink ev;
      notify ev rest

let push t ~actor ~phase ~span payload =
  let ev = { seq = t.next_seq; time = t.clock (); actor; phase; span; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.capacity > 0 then begin
    t.ring.(t.stored mod t.capacity) <- ev;
    t.stored <- t.stored + 1
  end;
  notify ev t.sinks

let emit t ~actor payload =
  if active t then push t ~actor ~phase:Instant ~span:0 payload

let span_begin t ~actor payload =
  if active t then begin
    t.next_span <- t.next_span + 1;
    let span = t.next_span in
    push t ~actor ~phase:Begin ~span payload;
    span
  end
  else 0

let span_end t ~actor ~span payload =
  if active t then push t ~actor ~phase:End ~span payload

let events t =
  if t.capacity = 0 then []
  else begin
    let n = Stdlib.min t.stored t.capacity in
    let first = t.stored - n in
    List.init n (fun i -> t.ring.((first + i) mod t.capacity))
  end

let recent t n =
  let all = events t in
  let len = List.length all in
  if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let emitted t = t.next_seq

let dropped t =
  if t.capacity = 0 then 0 else Stdlib.max 0 (t.stored - t.capacity)

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) sentinel;
  t.stored <- 0

(* Only the monotone emission counters are captured: ring contents and
   capacity are a front-end presentation choice (the same run traced
   into a 512-slot ring and a 256k-slot ring is still the same run),
   but [next_seq]/[next_span] must line up for the exported JSONL of a
   resumed run to continue the straight-through run's numbering. *)
let encode_state w t =
  Persist.Codec.W.int w t.next_seq;
  Persist.Codec.W.int w t.next_span

let restore_state r t =
  if t.inert then Persist.Codec.R.corrupt r "cannot restore into Trace.none";
  t.next_seq <- Persist.Codec.R.int r;
  t.next_span <- Persist.Codec.R.int r
