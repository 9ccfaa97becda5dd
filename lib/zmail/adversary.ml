(* Byzantine ISPs for the §4.4 robustness argument.  Every behavior
   here is a *report* tamper installed through [Isp.set_audit_tamper]:
   it rewrites the credit row the ISP hands the bank at thaw and
   touches nothing else.  That makes each one balance-neutral by
   construction — no e-penny moves differently, user balances and the
   bank's outstanding liability are exactly what an honest run
   produces — so the only question an experiment has to answer is
   whether the audit *detects* the lie.  (An adversary that also moved
   money would just be E3's minting cheater, which the audit already
   convicts.)  *)

type behavior =
  | Understate_owed of int
  | Replay_stale
  | Drop_crosscheck of int
  | Collude of { adjust : (int * int) list }

type t = {
  behavior : behavior;
  mutable last : (int * int) array option;
      (* Replay_stale: previous true sparse row *)
  mutable tampered : int;  (* reports actually altered *)
  mutable rounds : int;  (* thaws seen *)
}

let create behavior =
  (match behavior with
  | Understate_owed k when k <= 0 ->
      invalid_arg "Adversary: Understate_owed needs a positive amount"
  | Drop_crosscheck p when p < 0 ->
      invalid_arg "Adversary: Drop_crosscheck needs a valid peer"
  | Collude { adjust } ->
      if adjust = [] then invalid_arg "Adversary: Collude needs adjustments";
      List.iter
        (fun (p, d) ->
          if p < 0 then invalid_arg "Adversary: Collude peer out of range";
          if d = 0 then invalid_arg "Adversary: Collude adjustment must be non-zero")
        adjust;
      let peers = List.map fst adjust in
      if List.length (List.sort_uniq compare peers) <> List.length peers then
        invalid_arg "Adversary: Collude adjustments must target distinct peers"
  | Understate_owed _ | Drop_crosscheck _ | Replay_stale -> ());
  { behavior; last = None; tampered = 0; rounds = 0 }

let behavior t = t.behavior
let tampered t = t.tampered
let rounds t = t.rounds

let name = function
  | Understate_owed k -> Printf.sprintf "understate(%d)" k
  | Replay_stale -> "replay-stale"
  | Drop_crosscheck p -> Printf.sprintf "drop-crosscheck(%d)" p
  | Collude { adjust } ->
      Printf.sprintf "collude(%s)"
        (String.concat ","
           (List.map (fun (p, d) -> Printf.sprintf "%d:%+d" p d) adjust))

(* Merge a fixed adjustment list into a sparse row: out(p) = row(p) +
   adjust(p), zeros dropped, canonical sorted order.  Deterministic by
   construction (single sort of an association list). *)
let merge_adjust row adjust =
  let cells = Hashtbl.create (Array.length row + List.length adjust) in
  Array.iter (fun (p, v) -> Hashtbl.replace cells p v) row;
  List.iter
    (fun (p, d) ->
      let v = Option.value ~default:0 (Hashtbl.find_opt cells p) + d in
      if v = 0 then Hashtbl.remove cells p else Hashtbl.replace cells p v)
    adjust;
  let out = Hashtbl.fold (fun p v acc -> (p, v) :: acc) cells [] in
  Array.of_list (List.sort compare out)

(* The tamper never mutates [row] in place: the kernel owns it.  Rows
   are sparse [(peer, count)] pairs sorted by peer, and every branch
   returns that canonical form. *)
let tamper t ~seq:_ row =
  t.rounds <- t.rounds + 1;
  match t.behavior with
  | Understate_owed k ->
      let changed = ref false in
      let out =
        Array.to_list row
        |> List.filter_map (fun (p, v) ->
               if v < 0 then begin
                 changed := true;
                 let v' = v + min k (-v) in
                 if v' = 0 then None else Some (p, v')
               end
               else Some (p, v))
        |> Array.of_list
      in
      if !changed then t.tampered <- t.tampered + 1;
      out
  | Replay_stale -> (
      let truth = Array.copy row in
      match t.last with
      | None ->
          t.last <- Some truth;
          row
      | Some prev ->
          t.last <- Some truth;
          if prev <> truth then t.tampered <- t.tampered + 1;
          prev)
  | Drop_crosscheck peer ->
      if Array.exists (fun (p, _) -> p = peer) row then begin
        t.tampered <- t.tampered + 1;
        Array.of_list
          (List.filter (fun (p, _) -> p <> peer) (Array.to_list row))
      end
      else row
  | Collude { adjust } ->
      let out = merge_adjust row adjust in
      if out <> row then t.tampered <- t.tampered + 1;
      out

(* ------------------------------------------------------------------ *)
(* Collusion plans                                                     *)
(* ------------------------------------------------------------------ *)

let check_distinct what l =
  if List.length (List.sort_uniq compare l) <> List.length l then
    invalid_arg (Printf.sprintf "Adversary: %s must be distinct" what);
  List.iter
    (fun i -> if i < 0 then invalid_arg "Adversary: negative ISP index") l

(* Two colluders jointly cheat one victim while keeping their own pair
   antisymmetric: [a] overstates against the victim by [delta], [b]
   understates by the same amount (the victim's star balances), and the
   pair fabricates a mutual claim of [fabricate] (+f / -f, so their own
   check passes) — the consistent non-silent edge the cycle detector
   walks to close the ring. *)
let collusion_pair ~a ~b ~victim ~delta ?(fabricate = 7) () =
  check_distinct "collusion_pair participants" [ a; b; victim ];
  if delta = 0 then invalid_arg "Adversary: collusion_pair needs delta <> 0";
  if fabricate = 0 then
    invalid_arg "Adversary: collusion_pair needs fabricate <> 0";
  [
    (a, Collude { adjust = [ (victim, delta); (b, fabricate) ] });
    (b, Collude { adjust = [ (victim, -delta); (a, -fabricate) ] });
  ]

(* A ring of k >= 2 members rotating lies across k victims: member m_i
   overstates against victim v_i by [delta] and understates against
   v_(i-1) by the same amount, so every victim's star balances through
   the adjacent member pair; adjacent members fabricate the +f/-f
   coordination edge.  Each victim yields one minimal cycle
   {m_i, m_(i+1)} through v_i, so the detector convicts every member
   without enumerating the long cycle.  (For k = 2 the two "adjacent"
   members coincide, so the fabric edge is added once, not twice.) *)
let collusion_ring ~members ~victims ~delta ?(fabricate = 7) () =
  let k = List.length members in
  if k < 2 then invalid_arg "Adversary: collusion_ring needs >= 2 members";
  if List.length victims <> k then
    invalid_arg "Adversary: collusion_ring needs one victim per member";
  check_distinct "collusion_ring participants" (members @ victims);
  if delta = 0 then invalid_arg "Adversary: collusion_ring needs delta <> 0";
  if fabricate = 0 then
    invalid_arg "Adversary: collusion_ring needs fabricate <> 0";
  let m = Array.of_list members and v = Array.of_list victims in
  (* Distinct per-victim magnitudes (delta, delta+1, ...).  The star
     around each victim must balance — an unbalanced frame would shift
     the victim's implied settlement position, a trivial tell — but
     nothing forces each *member's* own lies to cancel, and keeping the
     magnitudes distinct means member-centered stars sum to
     a_i - a_{i-1} <> 0: only the victim-centered rings balance, so
     cycle-sum attribution cannot mistake a member for a center (the
     equal-magnitude corner where both sides balance is the documented
     ambiguity in DESIGN.md §13). *)
  let mag i = if delta > 0 then delta + i else delta - i in
  List.init k (fun i ->
      let next = m.((i + 1) mod k) and prev = m.((i + k - 1) mod k) in
      let fabric =
        if k = 2 then
          (* One fabricated edge, oriented by position so the pair's
             adjustments stay antisymmetric. *)
          if i = 0 then [ (next, fabricate) ] else [ (prev, -fabricate) ]
        else [ (next, fabricate); (prev, -fabricate) ]
      in
      let j = (i + k - 1) mod k in
      ( m.(i),
        Collude { adjust = ((v.(i), mag i) :: (v.(j), -mag j) :: fabric) } ))

(* [last] is real protocol state for Replay_stale (the next round's lie
   depends on it), so it must ride in world captures for resume
   determinism; the counters come along for table stability. *)
let encode_state w t =
  let open Persist.Codec.W in
  opt (array (pair int int)) w t.last;
  int w t.tampered;
  int w t.rounds

let restore_state r t =
  let open Persist.Codec.R in
  t.last <- opt (array (pair int int)) r;
  t.tampered <- int r;
  t.rounds <- int r

(* ------------------------------------------------------------------ *)
(* Bank-wire tampering                                                 *)
(* ------------------------------------------------------------------ *)

(* Where the ISP adversaries above lie in their *reports*, a bank-wire
   adversary owns a *link*: it sees every envelope crossing one
   ISP-to-bank (or bank-to-bank clearing) hop and may forge, replay,
   reorder or drop.  It never holds a key, so its forgeries are MAC
   garbage the bank rejects, its replays are absorbed by the reply
   cache / nonce dedup, and its reordering and drops are what the
   retry/backoff layer already tolerates — E19 measures exactly that. *)
module Bank_wire = struct
  type kind = Buy_msg | Sell_msg | Audit_reply_msg | Clearing_msg

  let kind_name = function
    | Buy_msg -> "buy"
    | Sell_msg -> "sell"
    | Audit_reply_msg -> "audit-reply"
    | Clearing_msg -> "clearing"

  type wire_behavior =
    | Forge_garbage of float
    | Replay_captured of float
    | Reorder of float * float
    | Drop_selective of kind * float

  type t = {
    behavior : wire_behavior;
    rng : Sim.Rng.t;
    (* Replay ammunition: recently captured traffic, newest first. *)
    mutable captured : Toycrypto.Seal.sealed list;
    mutable captured_signed : Wire.signed list;
    mutable forged : int;
    mutable replayed : int;
    mutable delayed : int;
    mutable dropped : int;
    mutable passed : int;
  }

  let capture_limit = 8

  let create rng behavior =
    let check_p p = p < 0. || p > 1. in
    (match behavior with
    | Forge_garbage p | Replay_captured p ->
        if check_p p then invalid_arg "Bank_wire: probability outside [0,1]"
    | Reorder (p, dmax) ->
        if check_p p then invalid_arg "Bank_wire: probability outside [0,1]";
        if dmax <= 0. then invalid_arg "Bank_wire: Reorder needs a positive delay"
    | Drop_selective (_, p) ->
        if p < 0. || p >= 1. then
          invalid_arg
            "Bank_wire: Drop_selective needs p in [0,1) so retransmission \
             can recover");
    { behavior; rng; captured = []; captured_signed = []; forged = 0;
      replayed = 0; delayed = 0; dropped = 0; passed = 0 }

  let behavior t = t.behavior
  let forged t = t.forged
  let replayed t = t.replayed
  let delayed t = t.delayed
  let dropped t = t.dropped
  let passed t = t.passed

  let name = function
    | Forge_garbage p -> Printf.sprintf "forge(%.2f)" p
    | Replay_captured p -> Printf.sprintf "replay(%.2f)" p
    | Reorder (p, dmax) -> Printf.sprintf "reorder(%.2f,%.0fs)" p dmax
    | Drop_selective (k, p) -> Printf.sprintf "drop-%s(%.2f)" (kind_name k) p

  let bernoulli t p = Sim.Rng.unit_float t.rng < p

  let take n l =
    let rec go n acc = function
      | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
      | _ -> List.rev acc
    in
    go n [] l

  type verdict =
    | Pass
    | Drop
    | Delay of float
    | Inject of Toycrypto.Seal.sealed

  let on_sealed t ~kind sealed =
    match t.behavior with
    | Drop_selective (k, p) when k = kind && bernoulli t p ->
        t.dropped <- t.dropped + 1;
        Drop
    | Forge_garbage p when bernoulli t p ->
        t.forged <- t.forged + 1;
        Inject
          (Toycrypto.Seal.forge t.rng
             ~recipient:(Toycrypto.Seal.recipient_id sealed)
             ~len:24)
    | Reorder (p, dmax) when bernoulli t p ->
        t.delayed <- t.delayed + 1;
        Delay (Sim.Rng.float t.rng dmax)
    | Replay_captured p ->
        let v =
          if t.captured <> [] && bernoulli t p then begin
            t.replayed <- t.replayed + 1;
            Inject
              (List.nth t.captured (Sim.Rng.int t.rng (List.length t.captured)))
          end
          else begin
            t.passed <- t.passed + 1;
            Pass
          end
        in
        t.captured <- take capture_limit (sealed :: t.captured);
        v
    | Forge_garbage _ | Reorder _ | Drop_selective _ ->
        t.passed <- t.passed + 1;
        Pass

  type signed_verdict =
    | S_pass
    | S_drop
    | S_delay of float
    | S_inject of Wire.signed

  (* Clearing traffic is signed, not sealed: the best forgery is a
     corrupted signature (verification rejects it), and replays are
     absorbed by the receiver's xfer-id dedup. *)
  let on_signed t ~kind (msg : Wire.signed) =
    match t.behavior with
    | Drop_selective (k, p) when k = kind && bernoulli t p ->
        t.dropped <- t.dropped + 1;
        S_drop
    | Forge_garbage p when bernoulli t p ->
        t.forged <- t.forged + 1;
        S_inject { msg with Wire.signature = msg.Wire.signature lxor 1 }
    | Reorder (p, dmax) when bernoulli t p ->
        t.delayed <- t.delayed + 1;
        S_delay (Sim.Rng.float t.rng dmax)
    | Replay_captured p ->
        let v =
          if t.captured_signed <> [] && bernoulli t p then begin
            t.replayed <- t.replayed + 1;
            S_inject
              (List.nth t.captured_signed
                 (Sim.Rng.int t.rng (List.length t.captured_signed)))
          end
          else begin
            t.passed <- t.passed + 1;
            S_pass
          end
        in
        t.captured_signed <- take capture_limit (msg :: t.captured_signed);
        v
    | Forge_garbage _ | Reorder _ | Drop_selective _ ->
        t.passed <- t.passed + 1;
        S_pass

  (* The RNG stream and the capture buffers are live protocol state
     (the next verdict depends on both), so taps ride in world
     captures like every other component. *)
  let encode_state w t =
    let open Persist.Codec.W in
    Sim.Rng.encode_state w t.rng;
    list Toycrypto.Seal.encode_bin w t.captured;
    list
      (fun w (s : Wire.signed) ->
        Wire.encode_bin w s.Wire.payload;
        int w s.Wire.signature)
      w t.captured_signed;
    int w t.forged;
    int w t.replayed;
    int w t.delayed;
    int w t.dropped;
    int w t.passed

  let restore_state r t =
    let open Persist.Codec.R in
    Sim.Rng.restore_state r t.rng;
    t.captured <- list Toycrypto.Seal.decode_bin r;
    t.captured_signed <-
      list
        (fun r ->
          let payload = Wire.decode_bin r in
          let signature = int r in
          { Wire.payload; signature })
        r;
    t.forged <- int r;
    t.replayed <- int r;
    t.delayed <- int r;
    t.dropped <- int r;
    t.passed <- int r
end
