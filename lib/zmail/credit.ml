(* [now] is the current billing period.  [early] buffers receives from
   peers that have already snapshotted and reset for a later period
   (their payment stamp carries a newer audit epoch): booking those
   into [now] would make this ISP's row claim receives its peer's row
   no longer shows, and the §4.4 antisymmetry check would falsely
   implicate both.  Buffers are keyed by the stamp's epoch — under a
   network partition a lagging ISP can be several audit rounds behind
   its peers, so "early" is not a single period ahead but a small
   ladder of future periods.  [reset_upto ~seq] closes the period(s)
   answering audit round [seq]: buffered receives stamped [<= seq] were
   folded into the reported row, epoch [seq+1] becomes the fresh
   period, later epochs stay buffered — the Chandy-Lamport marker rule
   for in-flight messages, generalized to multi-round lag.

   Periods are sparse rows ([Audit.Row]): under a Zipf workload an ISP
   exchanges mail with a small fraction of its peers, so the vector
   costs O(traffic partners), not O(n) — at 10^4 ISPs the dense
   per-ISP array (and the dense wire row it fed) is what made worlds
   of that size unrepresentable. *)

module Row = Audit.Row
module Sparse = Audit.Verify

type t = {
  n : int;
  mutable now : Row.t;
  mutable early : (int * Row.t) list;  (* epoch -> counts, ascending *)
  mutable reported : (int * Row.t) option;
      (* The row answering the last closed round, retained so a receive
         stamped with that round (the sender had not frozen yet when it
         charged the message) can still be booked where the sender
         booked it — see [amend_receive]. *)
  mutable tracer : Obs.Trace.t;
  mutable owner : int;  (* this vector's ISP index, for trace events *)
}

let create ~n =
  if n <= 0 then invalid_arg "Credit.create: n must be positive";
  {
    n;
    now = Row.create ~n;
    early = [];
    reported = None;
    tracer = Obs.Trace.none;
    owner = -1;
  }

let set_tracer t ~owner tracer =
  t.tracer <- tracer;
  t.owner <- owner

(* Call sites guard on [tracing] so the payload (an argument, so built
   eagerly) is not allocated when no tracer is attached. *)
let tracing t = Obs.Trace.active t.tracer

let ev t payload = Obs.Trace.emit t.tracer ~actor:t.owner payload

let n t = t.n

let get t peer = Row.get t.now peer

let record_send t ~peer =
  Row.add t.now peer 1;
  if tracing t then ev t (Credit_send { peer })

let record_receive t ~peer =
  Row.add t.now peer (-1);
  if tracing t then ev t (Credit_recv { peer })

let bucket t ~epoch =
  match List.assoc_opt epoch t.early with
  | Some row -> row
  | None ->
      let row = Row.create ~n:t.n in
      t.early <-
        List.merge (fun (a, _) (b, _) -> compare a b) t.early [ (epoch, row) ];
      row

let record_receive_early t ~epoch ~peer =
  let row = bucket t ~epoch in
  Row.add row peer (-1);
  if tracing t then ev t (Credit_recv_early { peer; epoch })

(* The late mirror of [record_receive_early]: a receive stamped with
   the round we just answered.  The sender booked the send in its
   round-[epoch] report (it had not frozen yet when it charged the
   message), so booking the receive into the open period would leave
   round [epoch] one-sided and round [epoch+1] one-sided the other way
   — a transient §4.4 violation on an honest pair that the majority
   rule can convert into a false conviction.  Instead the receive is
   folded into the retained reported row and the caller re-sends the
   amended reply while the bank's round is still open.

   The fold is commit-or-revert: [deliver] is called with the amended
   row, and only if it accepts (the round is still open and the
   replacement reply was handed to a transport) does the fold stick.
   Otherwise the fold is undone and [false] returned, so the caller
   books the receive into the open period — folding a receive into a
   report the bank will never re-read would erase it from the books
   entirely, which is how absent ISPs rejoining after a partition
   briefly looked like mass under-reporters. *)
let amend_receive t ~epoch ~peer ~deliver =
  match t.reported with
  | Some (s, row) when s = epoch ->
      Row.add row peer (-1);
      if deliver (Row.pairs row) then begin
        if tracing t then ev t (Credit_recv_amended { peer; epoch });
        true
      end
      else begin
        Row.add row peer 1;
        false
      end
  | Some _ | None -> false

let cancel_send t ~peer =
  Row.add t.now peer (-1);
  if tracing t then ev t (Credit_cancel { peer })

let early_pending t =
  -List.fold_left (fun acc (_, row) -> acc + Row.sum row) 0 t.early

let snapshot t = Row.to_dense t.now

(* The cumulative row answering audit round [seq]: everything booked in
   the open period(s), plus buffered receives already stamped with an
   epoch the round covers.  Pure — [reset_upto] is the mutating half. *)
let report_row t ~seq =
  let snap = Row.copy t.now in
  List.iter (fun (e, row) -> if e <= seq then Row.add_row snap row) t.early;
  snap

let snapshot_upto t ~seq = Row.to_dense (report_row t ~seq)

let report_upto t ~seq = Row.pairs (report_row t ~seq)

let populated t = Row.cardinal t.now

let reset_upto t ~seq =
  t.reported <- Some (seq, report_row t ~seq);
  let folded =
    -List.fold_left
       (fun acc (e, row) -> if e <= seq then acc + Row.sum row else acc)
       0 t.early
  in
  if folded > 0 && tracing t then ev t (Credit_fold { upto = seq; count = folded });
  let promoted =
    match List.assoc_opt (seq + 1) t.early with
    | Some row -> -Row.sum row
    | None -> 0
  in
  if tracing t then ev t (Credit_reset { promoted });
  t.now <-
    (match List.assoc_opt (seq + 1) t.early with
    | Some row -> Row.copy row
    | None -> Row.create ~n:t.n);
  t.early <- List.filter (fun (e, _) -> e > seq + 1) t.early

let net_flow t = Row.sum t.now

(* The tracer binding and owner index are wiring, not state: the
   restored vector keeps whatever tracer the live world attached.
   Rows persist in canonical sorted-pairs form (snapshot v5) — equal
   vectors encode to identical bytes. *)
let encode_state w t =
  Row.encode w t.now;
  Persist.Codec.W.list
    (fun w (e, row) ->
      Persist.Codec.W.int w e;
      Row.encode w row)
    w t.early;
  Persist.Codec.W.opt
    (fun w (s, row) ->
      Persist.Codec.W.int w s;
      Row.encode w row)
    w t.reported

let restore_state r t =
  t.now <- Row.restore r ~n:t.n;
  t.early <-
    Persist.Codec.R.list
      (fun r ->
        let e = Persist.Codec.R.int r in
        let row = Row.restore r ~n:t.n in
        (e, row))
      r;
  t.reported <-
    Persist.Codec.R.opt
      (fun r ->
        let s = Persist.Codec.R.int r in
        let row = Row.restore r ~n:t.n in
        (s, row))
      r

(* The dense reference verifier.  [Audit.Verify] (the sparse engine in
   lib/audit) is what the bank runs at scale; this O(n^2) scan is kept
   as the executable specification the property tests compare it
   against, and for the small dense matrices of the federation path.
   The violation record is one and the same type. *)
module Audit = struct
  type violation = Sparse.violation = {
    isp_a : int;
    isp_b : int;
    discrepancy : int;
  }

  let verify ~reported ~compliant =
    let n = Array.length compliant in
    if Array.length reported <> n then
      invalid_arg "Credit.Audit.verify: reported size mismatch";
    Array.iteri
      (fun i row ->
        if compliant.(i) && Array.length row <> n then
          invalid_arg
            (Printf.sprintf "Credit.Audit.verify: row %d has length %d, expected %d"
               i (Array.length row) n))
      reported;
    let violations = ref [] in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if compliant.(a) && compliant.(b) then begin
          let discrepancy = reported.(a).(b) + reported.(b).(a) in
          if discrepancy <> 0 then
            violations := { isp_a = a; isp_b = b; discrepancy } :: !violations
        end
      done
    done;
    List.rev !violations

  let implicated violations =
    List.concat_map (fun v -> [ v.isp_a; v.isp_b ]) violations
    |> List.sort_uniq compare

  let suspects ~compliant violations =
    let offenders = Sparse.offenders ~present:compliant violations in
    match (offenders, violations) with
    | [], [] -> []
    | [], _ -> implicated violations
    | offenders, _ -> offenders
end
