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
    v.check v.time v.detail Trace.pp_event v.event;
  match v.context with
  | [] -> ()
  | ctx ->
      Format.fprintf ppf "@,last %d traced events:" (List.length ctx);
      List.iter (fun ev -> Format.fprintf ppf "@,  %a" Trace.pp_event ev) ctx

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

(* [List.assoc_opt] with a string-typed key: the stdlib one compares
   through the polymorphic [compare], and the credit checkers look up
   a field on every credit event. *)
let rec field (key : string) = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else field key rest

let int_field (ev : Trace.event) key =
  match field key ev.Trace.fields with
  | Some (Trace.Int i) -> Some i
  | _ -> None

let bool_field (ev : Trace.event) key =
  match field key ev.Trace.fields with
  | Some (Trace.Bool b) -> Some b
  | _ -> None

(* [bool_field ev key = Some true] without the polymorphic compare. *)
let is_true (ev : Trace.event) key =
  match field key ev.Trace.fields with
  | Some (Trace.Bool b) -> b
  | _ -> false

let int_list_field (ev : Trace.event) key =
  match field key ev.Trace.fields with
  | Some (Trace.Str "") -> Some []
  | Some (Trace.Str s) ->
      let parts = String.split_on_char ',' s in
      let ints = List.filter_map int_of_string_opt parts in
      if List.length ints = List.length parts then Some ints else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Zero-sum conservation (§1.2)                                        *)
(* ------------------------------------------------------------------ *)

let attach_zero_sum ?(context = 32) trace ~initial =
  let t = fresh "zero-sum" in
  let expected = ref initial in
  let in_flight = ref 0 in
  let sink (ev : Trace.event) =
    match (ev.Trace.comp, ev.Trace.name) with
    | "isp", "charge" ->
        decr expected;
        incr in_flight
    | "isp", "settle" ->
        incr expected;
        decr in_flight
    | "isp", "refund" ->
        incr expected;
        decr in_flight
    | "isp", "mint" -> incr expected
    | "isp", "buy_apply" ->
        if is_true ev "accepted" then
          expected := !expected + Option.value ~default:0 (int_field ev "amount")
    | "isp", "sell_apply" ->
        expected := !expected - Option.value ~default:0 (int_field ev "taken")
    | "obs", "checkpoint" -> (
        t.checks <- t.checks + 1;
        (match int_field ev "total" with
        | Some total when total <> !expected ->
            violate ~trace ~context t ev
              "system holds %d e-pennies but the event stream accounts for %d \
               (delta %+d)"
              total !expected (total - !expected)
        | Some _ | None -> ());
        if is_true ev "quiescent" && !in_flight <> 0 then
          violate ~trace ~context t ev
            "%d paid messages still in flight at quiescence" !in_flight)
    | _ -> ()
  in
  attach trace t sink

(* ------------------------------------------------------------------ *)
(* Credit antisymmetry (§4.4)                                          *)
(* ------------------------------------------------------------------ *)

type pair_flow = { mutable sends : int; mutable recvs : int; mutable flying : int }

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

(* Flows are keyed by the single int [a * n + b]: both ISPs have passed
   [is_honest], so [0 <= a, b < n] and key order is [(a, b)] order. *)
let attach_antisymmetry ?(context = 32) trace ~honest =
  let t = fresh "credit-antisymmetry" in
  let n = Array.length honest in
  let pairs : pair_flow Int_tbl.t = Int_tbl.create 16 in
  let flow a b =
    let key = (a * n) + b in
    match Int_tbl.find_opt pairs key with
    | Some f -> f
    | None ->
        let f = { sends = 0; recvs = 0; flying = 0 } in
        Int_tbl.replace pairs key f;
        f
  in
  let is_honest i = i >= 0 && i < n && honest.(i) in
  let sink (ev : Trace.event) =
    match (ev.Trace.comp, ev.Trace.name) with
    | "credit", ("send" | "recv" | "cancel") -> (
        match int_field ev "peer" with
        | None -> ()
        | Some peer ->
            let owner = ev.Trace.actor in
            if is_honest owner && is_honest peer then begin
              t.checks <- t.checks + 1;
              (match ev.Trace.name with
              | "send" ->
                  let f = flow owner peer in
                  f.sends <- f.sends + 1;
                  f.flying <- f.flying + 1
              | "recv" ->
                  (* Receiver [owner] books a message from [peer]: the
                     flow direction is peer -> owner. *)
                  let f = flow peer owner in
                  f.recvs <- f.recvs + 1;
                  f.flying <- f.flying - 1;
                  if f.flying < 0 then
                    violate ~trace ~context t ev
                      "isp %d booked %d receives from isp %d against only %d \
                       sends — a double credit breaks credit_%d[%d] + \
                       credit_%d[%d] = 0"
                      owner f.recvs peer f.sends owner peer peer owner
              | "cancel" ->
                  let f = flow owner peer in
                  f.sends <- f.sends - 1;
                  f.flying <- f.flying - 1;
                  if f.flying < 0 || f.sends < 0 then
                    violate ~trace ~context t ev
                      "isp %d cancelled a send toward isp %d that the stream \
                       never recorded"
                      owner peer
              | _ -> ())
            end)
    | "obs", "checkpoint" ->
        if is_true ev "quiescent" then begin
          t.checks <- t.checks + 1;
          (* Report the smallest [(a, b)] in flight, not whichever the
             table's iteration order reaches first. *)
          let first =
            Int_tbl.fold
              (fun key f first ->
                if f.flying <> 0 && (first < 0 || key < first) then key
                else first)
              pairs (-1)
          in
          if first >= 0 then
            violate ~trace ~context t ev
              "pair (%d,%d) has %d credits in flight at quiescence"
              (first / n) (first mod n) (Int_tbl.find pairs first).flying
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
    match (ev.Trace.comp, ev.Trace.name, ev.Trace.phase) with
    | "bank", "audit", Trace.End ->
        t.checks <- t.checks + 1;
        let geti key = Option.value ~default:0 (int_field ev key) in
        let rings = geti "rings"
        and ring_volume = geti "ring_volume"
        and lied_volume = geti "lied_volume" in
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
        let ring_members =
          Option.value ~default:[] (int_list_field ev "ring_isps")
        in
        let cleared =
          Option.value ~default:[] (int_list_field ev "cleared_isps")
        in
        if rings > 0 && List.length ring_members < 2 then
          violate ~trace ~context t ev
            "%d ring(s) found but only %d ring member(s) — a ring has at \
             least two members"
            rings (List.length ring_members);
        List.iter
          (fun i ->
            if List.mem i ring_members then
              violate ~trace ~context t ev
                "isp %d both cleared and ring-convicted in one round" i)
          cleared;
        List.iter
          (fun i ->
            if is_honest i then
              violate ~trace ~context t ev
                "honest isp %d ring-convicted — cycle attribution framed a \
                 compliant non-cheating kernel"
                i)
          ring_members
    | _ -> ()
  in
  attach trace t sink

(* ------------------------------------------------------------------ *)
(* Exactly-once buy/sell settlement (E16)                              *)
(* ------------------------------------------------------------------ *)

let attach_exactly_once ?(context = 32) trace =
  let t = fresh "exactly-once" in
  let applied : (string * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let once side ~isp ~nonce ev =
    t.checks <- t.checks + 1;
    let key = (side, isp, nonce) in
    if Hashtbl.mem applied key then
      violate ~trace ~context t ev
        "%s applied twice for isp %d nonce %#x — a duplicate slipped past the \
         reply cache / nonce checks"
        side isp nonce;
    Hashtbl.replace applied key ()
  in
  let sink (ev : Trace.event) =
    match (ev.Trace.comp, ev.Trace.name) with
    | "bank", (("buy" | "sell") as op) -> (
        match (int_field ev "isp", int_field ev "nonce", bool_field ev "replay") with
        | Some isp, Some nonce, Some false -> once ("bank " ^ op) ~isp ~nonce ev
        | _ -> ())
    | "isp", (("buy_apply" | "sell_apply") as op) -> (
        match int_field ev "nonce" with
        | Some nonce -> once ("isp " ^ op) ~isp:ev.Trace.actor ~nonce ev
        | None -> ())
    | _ -> ()
  in
  attach trace t sink
