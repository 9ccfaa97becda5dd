type violation = {
  time : float;
  check : string;
  detail : string;
  event : Trace.event;
  context : Trace.event list;
}

exception Violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "@[<v>invariant %S violated at t=%.3fs: %s@,offending event:@,  %a@]"
    v.check v.time v.detail Export.pp_event v.event;
  match v.context with
  | [] -> ()
  | ctx ->
      Format.fprintf ppf "@,last %d traced events:" (List.length ctx);
      List.iter (fun ev -> Format.fprintf ppf "@,  %a" Export.pp_event ev) ctx

type t = {
  name : string;
  mutable checks : int;
  mutable detach : unit -> unit;
}

let name t = t.name
let checks t = t.checks
let detach t = t.detach ()

let fresh name = { name; checks = 0; detach = (fun () -> ()) }

let attach trace t sink =
  Trace.subscribe trace sink;
  t.detach <- (fun () -> Trace.unsubscribe trace sink);
  t

let violate ~trace ~context t (ev : Trace.event) fmt =
  Format.kasprintf
    (fun detail ->
      raise
        (Violation
           {
             time = ev.Trace.time;
             check = t.name;
             detail;
             event = ev;
             context = Trace.recent trace context;
           }))
    fmt

(* ------------------------------------------------------------------ *)
(* Zero-sum conservation (§1.2)                                        *)
(* ------------------------------------------------------------------ *)

let attach_zero_sum ?(context = 32) trace ~initial =
  let t = fresh "zero-sum" in
  let expected = ref initial in
  let in_flight = ref 0 in
  let sink (ev : Trace.event) =
    match ev.payload with
    | Isp_charge _ ->
        decr expected;
        incr in_flight
    | Isp_settle _ | Isp_refund _ ->
        incr expected;
        decr in_flight
    | Isp_mint _ -> incr expected
    | Isp_buy_apply { accepted; amount; _ } ->
        if accepted then expected := !expected + amount
    | Isp_sell_apply { taken; _ } -> expected := !expected - taken
    | Obs_checkpoint { total; quiescent; _ } ->
        t.checks <- t.checks + 1;
        if total <> !expected then
          violate ~trace ~context t ev
            "system holds %d e-pennies but the event stream accounts for %d \
             (delta %+d)"
            total !expected (total - !expected);
        if quiescent && !in_flight <> 0 then
          violate ~trace ~context t ev
            "%d paid messages still in flight at quiescence" !in_flight
    | _ -> ()
  in
  attach trace t sink

(* ------------------------------------------------------------------ *)
(* Credit antisymmetry (§4.4)                                          *)
(* ------------------------------------------------------------------ *)

(* Per-pair credit flows keyed by one int, open-addressed in a single
   flat int array: three ints per slot (the key, [-1] when empty; sends;
   receives), so a lookup reads one stretch of memory where a [Hashtbl]
   chain reads three blocks, and only growth allocates.  E21's
   10^4-ISP cell rules out a dense n * n array. *)
module Flows = struct
  type t = { mutable slots : int array; mutable bits : int; mutable used : int }

  let width = 3
  let create () = { slots = Array.make (width lsl 4) (-1); bits = 4; used = 0 }

  (* Fibonacci hashing: the top [bits] of [key] times 2^62 / phi. *)
  let home t key = ((key * 0x278dde6e5fd29e01) land max_int) lsr (62 - t.bits)

  (* The slot holding [key], or the empty slot where it would go.  A
     top-level loop: a local one would close over [key] and allocate. *)
  let rec probe slots mask key i =
    let k = slots.(i * width) in
    if k = key || k < 0 then i else probe slots mask key ((i + 1) land mask)

  let slot t key = probe t.slots ((1 lsl t.bits) - 1) key (home t key)

  (* The base index of [key]'s slot, adding the pair with zero counts
     when it is new; the table doubles past three quarters full. *)
  let rec find t key =
    let base = slot t key * width in
    if t.slots.(base) = key then base
    else if 4 * (t.used + 1) <= 3 lsl t.bits then begin
      t.slots.(base) <- key;
      t.slots.(base + 1) <- 0;
      t.slots.(base + 2) <- 0;
      t.used <- t.used + 1;
      base
    end
    else begin
      let old = t.slots in
      t.bits <- t.bits + 1;
      t.slots <- Array.make (width lsl t.bits) (-1);
      for i = 0 to (Array.length old / width) - 1 do
        let k = old.(i * width) in
        if k >= 0 then Array.blit old (i * width) t.slots (slot t k * width) width
      done;
      find t key
    end

  let sends t base = t.slots.(base + 1)
  let recvs t base = t.slots.(base + 2)
  let add_sends t base d = t.slots.(base + 1) <- t.slots.(base + 1) + d
  let add_recvs t base d = t.slots.(base + 2) <- t.slots.(base + 2) + d

  (* The smallest key whose pair has messages in flight, or [-1]. *)
  let first_in_flight t =
    let first = ref (-1) in
    for i = 0 to (Array.length t.slots / width) - 1 do
      let base = i * width in
      let k = t.slots.(base) in
      if k >= 0 && sends t base <> recvs t base && (!first < 0 || k < !first) then
        first := k
    done;
    !first
end

(* Flows are keyed by [a * n + b]: both ISPs have passed [is_honest],
   so [0 <= a, b < n] and key order is [(a, b)] order.  A pair's
   messages in flight are its sends minus its receives. *)
let attach_antisymmetry ?(context = 32) trace ~honest =
  let t = fresh "credit-antisymmetry" in
  let n = Array.length honest in
  let flows = Flows.create () in
  let is_honest i = i >= 0 && i < n && honest.(i) in
  let send owner peer =
    Flows.add_sends flows (Flows.find flows ((owner * n) + peer)) 1
  in
  (* Receiver [owner] books a message from [peer]: the flow direction
     is peer -> owner. *)
  let recv ev owner peer =
    let f = Flows.find flows ((peer * n) + owner) in
    Flows.add_recvs flows f 1;
    let sends = Flows.sends flows f and recvs = Flows.recvs flows f in
    if recvs > sends then
      violate ~trace ~context t ev
        "isp %d booked %d receives from isp %d against only %d sends — a \
         double credit breaks credit_%d[%d] + credit_%d[%d] = 0"
        owner recvs peer sends owner peer peer owner
  in
  let cancel ev owner peer =
    let f = Flows.find flows ((owner * n) + peer) in
    Flows.add_sends flows f (-1);
    let sends = Flows.sends flows f in
    if sends < Flows.recvs flows f || sends < 0 then
      violate ~trace ~context t ev
        "isp %d cancelled a send toward isp %d that the stream never recorded"
        owner peer
  in
  let honest_pair owner peer =
    let both = is_honest owner && is_honest peer in
    if both then t.checks <- t.checks + 1;
    both
  in
  let sink (ev : Trace.event) =
    let owner = ev.actor in
    match ev.payload with
    | Credit_send { peer } -> if honest_pair owner peer then send owner peer
    | Credit_recv { peer }
    | Credit_recv_early { peer; _ }
    | Credit_recv_amended { peer; _ } ->
        if honest_pair owner peer then recv ev owner peer
    | Credit_cancel { peer } -> if honest_pair owner peer then cancel ev owner peer
    | Obs_checkpoint { quiescent = true; _ } ->
        t.checks <- t.checks + 1;
        (* Report the smallest [(a, b)] in flight, not whichever the
           table's slot order reaches first. *)
        let first = Flows.first_in_flight flows in
        if first >= 0 then begin
          let f = Flows.find flows first in
          violate ~trace ~context t ev
            "pair (%d,%d) has %d credits in flight at quiescence" (first / n)
            (first mod n)
            (Flows.sends flows f - Flows.recvs flows f)
        end
    | _ -> ()
  in
  attach trace t sink

(* ------------------------------------------------------------------ *)
(* Cycle-residue accounting (§4.4 collusion attribution)               *)
(* ------------------------------------------------------------------ *)

(* Consumes the bank's closing audit span event.  The lied volume of a
   round is what its violations sum to in absolute terms; the ring
   volume is the part the cycle detector attributed to collusion
   rings.  The checker fails fast — with the tracer's ring-buffer
   context — when attribution stops adding up (ring volume exceeding
   lied volume, rings without members, a center both cleared and
   ring-convicted) or when a ring conviction lands on an ISP declared
   honest: the one outcome the cycle detector must never produce. *)
let attach_cycle_residue ?(context = 32) trace ~honest =
  let t = fresh "cycle-residue" in
  let is_honest i = i >= 0 && i < Array.length honest && honest.(i) in
  let sink (ev : Trace.event) =
    match ev.payload with
    | Bank_audit_end { rings; ring_volume; lied_volume; ring_isps; cleared_isps; _ }
      ->
        t.checks <- t.checks + 1;
        if ring_volume > lied_volume then
          violate ~trace ~context t ev
            "rings account for volume %d but the round only lied %d"
            ring_volume lied_volume;
        if rings = 0 && ring_volume <> 0 then
          violate ~trace ~context t ev
            "no rings found yet ring volume is %d" ring_volume;
        (* Only the cycle detector's own convictions ([ring_isps]) are
           held to the soundness bar: strict-majority offenders can be
           transient artifacts of in-flight traffic at the snapshot
           (E20's serving worlds), which is §4.4's pre-existing
           ambiguity, not a ring-attribution bug. *)
        let members = List.length ring_isps in
        if rings > 0 && members < 2 then
          violate ~trace ~context t ev
            "%d ring(s) found but only %d ring member(s) — a ring has at \
             least two members"
            rings members;
        List.iter
          (fun i ->
            if List.exists (Int.equal i) ring_isps then
              violate ~trace ~context t ev
                "isp %d both cleared and ring-convicted in one round" i)
          cleared_isps;
        List.iter
          (fun i ->
            if is_honest i then
              violate ~trace ~context t ev
                "honest isp %d ring-convicted — cycle attribution framed a \
                 compliant non-cheating kernel"
                i)
          ring_isps
    | _ -> ()
  in
  attach trace t sink

(* ------------------------------------------------------------------ *)
(* Exactly-once buy/sell settlement (E16)                              *)
(* ------------------------------------------------------------------ *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

(* Applied nonces live in one table per (ISP, side), found by the
   int [isp * 4 + side]; both levels are int-keyed, so a check hashes
   no strings or tuples. *)
let sides = [| "bank buy"; "bank sell"; "isp buy_apply"; "isp sell_apply" |]

let attach_exactly_once ?(context = 32) trace =
  let t = fresh "exactly-once" in
  let applied : unit Int_tbl.t Int_tbl.t = Int_tbl.create 16 in
  let once side ~isp ~nonce ev =
    t.checks <- t.checks + 1;
    let slot = (isp * Array.length sides) + side in
    let nonces =
      match Int_tbl.find applied slot with
      | nonces -> nonces
      | exception Not_found ->
          let nonces = Int_tbl.create 16 in
          Int_tbl.add applied slot nonces;
          nonces
    in
    if Int_tbl.mem nonces nonce then
      violate ~trace ~context t ev
        "%s applied twice for isp %d nonce %#x — a duplicate slipped past the \
         reply cache / nonce checks"
        sides.(side) isp nonce;
    Int_tbl.add nonces nonce ()
  in
  let sink (ev : Trace.event) =
    match ev.payload with
    | Bank_buy { isp; nonce; _ } -> once 0 ~isp ~nonce ev
    | Bank_sell { isp; nonce; _ } -> once 1 ~isp ~nonce ev
    | Isp_buy_apply { nonce; _ } -> once 2 ~isp:ev.actor ~nonce ev
    | Isp_sell_apply { nonce; _ } -> once 3 ~isp:ev.actor ~nonce ev
    | _ -> ()
  in
  attach trace t sink
