(* Mesh-routed inter-bank clearing, the one way money moves between
   member banks.  A settlement round plans its transfers
   ([Federation.settle_plan]), signs each one and pushes it through a
   [Sim.Fault.Mesh] link as a datagram — possibly lossy, delaying,
   partitioned, or owned by an [Adversary.Bank_wire] tap.  The sender
   retransmits under [Sim.Retry] backoff until the receiving bank's
   signed ack comes back; the receiver applies each transfer exactly once (xfer-id
   dedup) and re-acks duplicates.  Money moves atomically at delivery,
   so federation cash is conserved at every instant; an undelivered
   transfer is carry ([pending_amount]), drained by retries once the
   mesh heals. *)

type pending = {
  xfer_id : int;
  from_bank : int;
  to_bank : int;
  amount : int;
  msg : Wire.signed;
  mutable acked : bool;
}

type t = {
  fed : Federation.t;
  engine : Sim.Engine.t;
  mesh : Sim.Fault.Mesh.t;
  taps : ((int * int) * Adversary.Bank_wire.t) list;
  retry : Sim.Retry.policy;
  mutable pending : pending list;  (* oldest first; acked entries pruned *)
  mutable messages : int;  (* transfers + acks offered to the wire, retransmits included *)
  mutable rounds : int;
}

(* Retries double from [retry_timeout] up to two hours. *)
let retry_cap = 7200.

let create ?(taps = []) ?(retry_timeout = 600.) ~engine ~mesh fed =
  let n = Federation.n_banks fed in
  if Sim.Fault.Mesh.n_nodes mesh < n then
    invalid_arg "Clearing.create: mesh smaller than the federation";
  if not (retry_timeout > 0. && retry_timeout <= retry_cap) then
    invalid_arg "Clearing.create: invalid retry timeout";
  List.iter
    (fun ((a, b), _) ->
      if a < 0 || a >= n || b < 0 || b >= n || a = b then
        invalid_arg "Clearing.create: tap endpoints out of range")
    taps;
  { fed; engine; mesh; taps;
    retry = Sim.Retry.policy ~initial:retry_timeout ~factor:2. ~cap:retry_cap;
    pending = []; messages = 0; rounds = 0 }

let federation t = t.fed
let messages t = t.messages
let rounds t = t.rounds

let tap t ~src ~dst = List.assoc_opt (src, dst) t.taps

let mark_acked t xfer_id =
  List.iter (fun p -> if p.xfer_id = xfer_id then p.acked <- true) t.pending

(* Offer one message to the wire from [src] to [dst]: through that
   directed link's tap, if any, which may pass, drop, hold or
   inject-then-pass it; whatever it lets through goes to [deliver]. *)
let offer t ~src ~dst deliver msg =
  t.messages <- t.messages + 1;
  match tap t ~src ~dst with
  | None -> deliver msg
  | Some adv -> (
      match
        Adversary.Bank_wire.on_signed adv ~kind:Adversary.Bank_wire.Clearing_msg msg
      with
      | Adversary.Bank_wire.S_pass -> deliver msg
      | Adversary.Bank_wire.S_drop -> ()
      | Adversary.Bank_wire.S_delay d ->
          ignore (Sim.Engine.schedule_after t.engine ~delay:d (fun () -> deliver msg))
      | Adversary.Bank_wire.S_inject extra ->
          deliver extra;
          deliver msg)

(* Ack path: receiving bank -> originating bank, through its own
   directed tap and mesh link.  Acks are not themselves retransmitted;
   a lost ack is recovered by the transfer retransmit, which the
   receiver answers with a fresh ack. *)
let send_ack t ~from_bank ~to_bank ack =
  offer t ~src:to_bank ~dst:from_bank
    (Sim.Fault.Mesh.route t.mesh ~src:to_bank ~dst:from_bank (fun msg ->
         match Federation.receive_ack t.fed ~to_bank msg with
         | Ok xfer_id -> mark_acked t xfer_id
         | Error _ -> ()))
    ack

(* Forward path: the banks are read from the (signed) payload, so an
   injected replay of an old transfer is delivered — and deduped — on
   its own terms, and a forged copy fails signature verification inside
   [receive_transfer].  A held copy is delivered after the hold, like
   every mesh datagram. *)
let deliver_transfer t msg =
  match msg.Wire.payload with
  | Wire.Transfer { from_bank; to_bank; _ } ->
      Sim.Fault.Mesh.route t.mesh ~src:from_bank ~dst:to_bank
        (fun msg ->
          match Federation.receive_transfer t.fed msg with
          | Ok (_, ack) -> send_ack t ~from_bank ~to_bank ack
          | Error _ -> ())
        msg
  | _ -> ()

let transmit t p =
  Sim.Retry.until_settled t.engine t.retry ~still:(fun () -> not p.acked)
  @@ fun () -> offer t ~src:p.from_bank ~dst:p.to_bank (deliver_transfer t) p.msg

(* Obligations issued but (as far as the planner can tell) not yet
   executed: unacked and not recorded at the destination's dedup
   table. *)
let in_flight t =
  List.filter
    (fun p ->
      (not p.acked)
      && not (Federation.transfer_applied t.fed ~to_bank:p.to_bank ~xfer_id:p.xfer_id))
    t.pending

let pending_count t = List.length (List.filter (fun p -> not p.acked) t.pending)
let pending_amount t = List.fold_left (fun acc p -> acc + p.amount) 0 (in_flight t)

let settle_round ?(exclude = []) t =
  t.rounds <- t.rounds + 1;
  t.pending <- List.filter (fun p -> not p.acked) t.pending;
  let carried =
    List.map (fun p -> (p.from_bank, p.to_bank, p.amount)) (in_flight t)
  in
  let plan = Federation.settle_plan ~exclude ~in_flight:carried t.fed in
  List.iter
    (fun (from_bank, to_bank, amount) ->
      let xfer_id = Federation.next_xfer_id t.fed in
      let msg =
        Federation.sign_transfer t.fed ~from_bank ~to_bank ~amount ~xfer_id
      in
      let p = { xfer_id; from_bank; to_bank; amount; msg; acked = false } in
      t.pending <- t.pending @ [ p ];
      transmit t p)
    plan;
  plan
