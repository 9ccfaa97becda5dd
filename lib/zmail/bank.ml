type config = {
  n_isps : int;
  compliant : bool array;
  initial_account : int;
  replay_hardening : bool;
}

let default_config ~n_isps ~compliant =
  { n_isps; compliant; initial_account = 1_000_000; replay_hardening = true }

(* Shared by [Bank] and [Federation]: every reason either front door
   can turn a message away.  Keeping this one closed variant (rather
   than free-form strings) makes forgery and wrong-state rejections
   distinguishable in stats and experiment tables. *)
type reject =
  | Unknown_isp
  | Non_compliant
  | Unreadable
  | Foreign_bank
  | Wrong_state
  | Wrong_direction

let all_rejects =
  [ Unknown_isp; Non_compliant; Unreadable; Foreign_bank; Wrong_state;
    Wrong_direction ]

let n_reject_reasons = List.length all_rejects

let reject_index = function
  | Unknown_isp -> 0
  | Non_compliant -> 1
  | Unreadable -> 2
  | Foreign_bank -> 3
  | Wrong_state -> 4
  | Wrong_direction -> 5

let reject_to_string = function
  | Unknown_isp -> "unknown ISP"
  | Non_compliant -> "non-compliant ISP"
  | Unreadable -> "unreadable (forged or corrupted)"
  | Foreign_bank -> "sealed to a foreign bank"
  | Wrong_state -> "wrong state for this message"
  | Wrong_direction -> "bank-origin payload from an ISP"

type audit_state = {
  audit_seq : int;
  awaiting : bool array;  (* per ISP: reply still outstanding *)
  mutable left : int;  (* how many [awaiting] cells are set *)
  absent : int list;  (* excluded at round start: unreachable, not guilty *)
  reported : (int * int) array array;
      (* per-ISP sparse rows as they came off the wire *)
  span : int;  (* trace span opened at start_audit; 0 on other members *)
}

type t = {
  config : config;
  public : Toycrypto.Rsa.public;
  secret : Toycrypto.Rsa.secret;
  account : int array;
  (* Reply cache keyed by (isp, request nonce).  Under replay
     hardening a duplicated buy/sell — whether replayed by an attacker
     or retransmitted by an ISP that lost our reply — is answered with
     the original reply instead of being re-applied: exactly-once
     effect over an at-least-once link. *)
  reply_cache : (int * int64, Wire.payload) Hashtbl.t;
  (* [carry.(x)] keyed by reporter [y]: what [y] has claimed against
     ISP [x] across the rounds [x] was absent for and has not answered
     yet.  When [x] finally reports, its cumulative row covers all its
     missed periods at once, so the pair check compares it against its
     peers' earlier reports via this carry instead of falsely accusing
     both sides of the partition.  Rows are cleared when their ISP
     reports (the carry is consumed by that round's check).  Sparse:
     only partitions that actually separated traffic partners populate
     cells. *)
  carry : Audit.Row.t array;
  mutable outstanding : int;
  mutable seq : int;
  mutable audit : audit_state option;
  mutable buys : int;
  mutable buys_rejected : int;
  mutable sells : int;
  mutable replays_dropped : int;
  mutable audits_completed : int;
  mutable messages_in : int;
  mutable messages_out : int;
  rejects : int array;  (* indexed by [reject_index] *)
  mutable tracer : Obs.Trace.t;
  wal : t Journal.t;
      (* {!Journal.off} without a disk: logs nothing, costs nothing,
         cannot recover. *)
}

let set_tracer t tracer = t.tracer <- tracer

(* Call sites guard on [tracing] so the payload (an argument, so built
   eagerly) is not allocated when no tracer is attached. *)
let tracing t = Obs.Trace.active t.tracer

let ev t payload = Obs.Trace.emit t.tracer ~actor:(-1) payload

let public_key t = t.public
let sign t payload = Wire.sign_by_bank t.secret payload
let account_balance t ~isp = t.account.(isp)
let outstanding_epennies t = t.outstanding
let disk t = Journal.disk t.wal
let wal_appended t = Journal.appended t.wal
let wal_replayed t = Journal.replayed t.wal

(* ------------------------------------------------------------------ *)
(* State capture                                                       *)
(* ------------------------------------------------------------------ *)

(* The keypair is not captured: it is derived deterministically from
   the creation RNG, so the world-rebuild that precedes a restore
   regenerates the identical keys.  The reply cache is sorted by
   (isp, nonce) so equal banks encode identically regardless of
   Hashtbl internals.

   [encode_kernel] is the protocol state only, the body of the WAL's
   checkpoint images; the public [encode_state] adds the journal (the
   storage device and WAL bookkeeping) when a disk is attached. *)
let encode_kernel w t =
  let open Persist.Codec.W in
  int_array w t.account;
  let entries =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.reply_cache []
    |> List.sort (fun ((i1, n1), _) ((i2, n2), _) ->
           match Int.compare i1 i2 with 0 -> Int64.compare n1 n2 | c -> c)
  in
  list
    (fun w ((isp, nonce), payload) ->
      int w isp;
      i64 w nonce;
      Wire.encode_bin w payload)
    w entries;
  array Audit.Row.encode w t.carry;
  int w t.outstanding;
  int w t.seq;
  opt
    (fun w (a : audit_state) ->
      int w a.audit_seq;
      (* the awaited ISPs, ascending *)
      list int w
        (List.filter (Array.get a.awaiting) (List.init (Array.length a.awaiting) Fun.id));
      list int w a.absent;
      array (array (pair int int)) w a.reported;
      int w a.span)
    w t.audit;
  int w t.buys;
  int w t.buys_rejected;
  int w t.sells;
  int w t.replays_dropped;
  int w t.audits_completed;
  int w t.messages_in;
  int w t.messages_out;
  int_array w t.rejects

let restore_kernel r t =
  let open Persist.Codec.R in
  let account = int_array r in
  if Array.length account <> Array.length t.account then
    corrupt r "Bank: account array size mismatch";
  Array.blit account 0 t.account 0 (Array.length account);
  Hashtbl.reset t.reply_cache;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.reply_cache k v)
    (list
       (fun r ->
         let isp = int r in
         let nonce = i64 r in
         let payload = Wire.decode_bin r in
         ((isp, nonce), payload))
       r);
  let carry = array (fun r -> Audit.Row.restore r ~n:t.config.n_isps) r in
  if Array.length carry <> t.config.n_isps then
    corrupt r "Bank: carry matrix size mismatch";
  Array.blit carry 0 t.carry 0 (Array.length carry);
  t.outstanding <- int r;
  t.seq <- int r;
  (* [audit_state] is rebuilt wholesale: nothing outside the bank holds
     a reference to it (callers poll {!awaits_reply} instead). *)
  t.audit <-
    opt
      (fun r ->
        let audit_seq = int r in
        let waiting = list int r in
        let absent = list int r in
        let in_range i =
          if i < 0 || i >= t.config.n_isps then corrupt r "Bank: audited ISP out of range"
        in
        List.iter in_range absent;
        let awaiting = Array.make t.config.n_isps false in
        List.iter (fun i -> in_range i; awaiting.(i) <- true) waiting;
        let reported = array (array (pair int int)) r in
        let span = int r in
        if Array.length reported <> t.config.n_isps then
          corrupt r "Bank: audit matrix size mismatch";
        let left = Array.fold_left (fun n a -> if a then n + 1 else n) 0 awaiting in
        { audit_seq; awaiting; left; absent; reported; span })
      r;
  t.buys <- int r;
  t.buys_rejected <- int r;
  t.sells <- int r;
  t.replays_dropped <- int r;
  t.audits_completed <- int r;
  t.messages_in <- int r;
  t.messages_out <- int r;
  let rejects = int_array r in
  if Array.length rejects <> n_reject_reasons then
    corrupt r "Bank: reject counter size mismatch";
  Array.blit rejects 0 t.rejects 0 n_reject_reasons

let encode_state w t =
  encode_kernel w t;
  Journal.encode_state w t.wal

let restore_state r t =
  restore_kernel r t;
  Journal.restore_state r t.wal

let durable_image t = Persist.Codec.to_string encode_kernel t

(* ------------------------------------------------------------------ *)
(* The write-ahead log                                                 *)
(* ------------------------------------------------------------------ *)

(* Every bank transition is an ISP-origin message, an audit-round
   start, or a request re-issue; the WAL records exactly these inputs.
   All bank records are money- or protocol-bearing (a buy reply that
   escaped while its debit was volatile would double-spend on
   recovery), so every record flushes immediately — no group commit on
   the bank side.  A completed audit round checkpoints the log instead
   of appending: completed rounds must never replay (their
   [Audit_complete] was already delivered to the world), and the
   checkpoint keeps recovery time bounded by the open round's
   traffic.  The message path draws no randomness ([sign_by_bank] and
   [open_at_bank] are deterministic), so replaying the logged inputs
   rebuilds the reply cache and audit state byte-identically.

   Tag 0 is the journal's checkpoint record. *)

let tag_msg = 1
let tag_start = 2
let tag_resend = 3

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?disk rng config =
  if Array.length config.compliant <> config.n_isps then
    invalid_arg "Bank.create: compliance map size mismatch";
  let public, secret = Toycrypto.Rsa.generate rng in
  let t =
    {
      config;
      public;
      secret;
      account = Array.make config.n_isps config.initial_account;
      reply_cache = Hashtbl.create 256;
      carry = Array.init config.n_isps (fun _ -> Audit.Row.create ~n:config.n_isps);
      outstanding = 0;
      seq = 0;
      audit = None;
      buys = 0;
      buys_rejected = 0;
      sells = 0;
      replays_dropped = 0;
      audits_completed = 0;
      messages_in = 0;
      messages_out = 0;
      rejects = Array.make n_reject_reasons 0;
      tracer = Obs.Trace.none;
      wal =
        (match disk with
        | None -> Journal.off
        | Some d ->
            Journal.create d ~commit:Every_record ~encode:encode_kernel
              ~restore:restore_kernel);
    }
  in
  Journal.checkpoint t.wal t;
  t

type audit_result = {
  seq : int;
  violations : Credit.Audit.violation list;
  suspects : int list;
  convicted : int list;
      (** Positive convictions only: strict-majority offenders plus
          cycle-ring members.  A subset of [suspects]; the remainder of
          [suspects] is investigation, not conviction. *)
  rings : Audit.Cycle.ring list;
      (** Collusion rings found by the cycle-sum detector. *)
  cleared : int list;
      (** Honest third parties the pairwise check would have framed —
          ring centers, removed from [suspects]. *)
  absent : int list;
      (** ISPs the round proceeded without (unreachable at round start).
          Never suspects by virtue of absence: unreachable is not
          guilty. *)
}

type response =
  | Reply of Wire.signed
  | Audit_progress
  | Audit_complete of audit_result
  | Rejected of reject

let cached_reply t ~from_isp nonce =
  if not t.config.replay_hardening then None
  else Hashtbl.find_opt t.reply_cache (from_isp, nonce)

let cache_reply t ~from_isp nonce payload =
  if t.config.replay_hardening then
    Hashtbl.replace t.reply_cache (from_isp, nonce) payload

let reply t payload =
  t.messages_out <- t.messages_out + 1;
  Reply (Wire.sign_by_bank t.secret payload)

(* Close the round of every member at once ([members] is one bank for
   a standalone bank, every member in bank order for a federation).
   Their collected rows and their carries feed one claim accumulator,
   so pairs whose ISPs bank at different members are checked like any
   other.  Cost follows the populated cell count, never n^2.

   Each reporter's row is adjusted by the carry of what its
   absent-round peers' earlier reports claimed against it, so a row
   that is cumulative over missed rounds reconciles to zero instead of
   implicating both sides of a healed partition.  Then the carry is
   rolled forward: reporters' rows are consumed, and what they just
   claimed against this round's absentees is carried, at the
   reporter's member, for the round those absentees eventually answer.
   After the pairwise pass the cycle-sum detector walks the violating
   edges for collusion rings — coordinated liars whose star balances
   at an honest victim — and attribution convicts the ring while
   clearing the framed center. *)
let close_round ?rewrite members =
  let rounds =
    Array.map
      (fun t ->
        match t.audit with
        | Some a when a.left = 0 -> a
        | Some _ | None -> invalid_arg "Bank.close_round: a member is still collecting")
      members
  in
  let lead = members.(0) and audit = rounds.(0) in
  let n = lead.config.n_isps in
  let absent =
    List.sort_uniq Int.compare
      (List.concat_map (fun (a : audit_state) -> a.absent) (Array.to_list rounds))
  in
  let is_absent = Array.make n false in
  List.iter (fun i -> is_absent.(i) <- true) absent;
  let present = Array.make n false in
  Array.iter
    (fun t ->
      Array.iteri (fun i c -> if c && not is_absent.(i) then present.(i) <- true) t.config.compliant)
    members;
  (* A Byzantine member's rewrite replaces the rows it collected, for
     the check and the carry alike. *)
  let rows =
    Array.mapi
      (fun m (a : audit_state) ->
        match rewrite with
        | None -> a.reported
        | Some f -> Array.mapi (fun isp row -> f ~member:m ~isp row) a.reported)
      rounds
  in
  let cells f = Array.fold_left (fun acc row -> acc + f row) in
  let expected_cells =
    Array.fold_left (cells Array.length) 0 rows
    + Array.fold_left (fun acc t -> cells Audit.Row.cardinal acc t.carry) 0 members
  in
  let acc = Audit.Verify.create ~expected_cells ~present () in
  Array.iter
    (Array.iteri (fun a row ->
         if present.(a) then
           Array.iter (fun (b, v) -> Audit.Verify.claim acc ~reporter:a ~peer:b v) row))
    rows;
  (* [carry.(x)] cell [y -> v]: reporter [y] claimed [v] against [x] in
     a round [x] missed, fed as part of [y]'s row.  Claims touching a
     still-absent [x] are ignored by the accumulator and stay carried. *)
  Array.iter
    (fun t ->
      Array.iteri
        (fun x row ->
          Audit.Row.iter (fun y v -> Audit.Verify.claim acc ~reporter:y ~peer:x v) row)
        t.carry)
    members;
  let violations = Audit.Verify.violations acc in
  Array.iteri
    (fun m t ->
      Array.iteri (fun x row -> if present.(x) then Audit.Row.clear row) t.carry;
      if absent <> [] then
        Array.iteri
          (fun y row ->
            if present.(y) then
              Array.iter
                (fun (b, v) -> if b >= 0 && b < n && is_absent.(b) then Audit.Row.add t.carry.(b) y v)
                row)
          rows.(m);
      t.audit <- None;
      t.seq <- t.seq + 1;
      t.audits_completed <- t.audits_completed + 1)
    members;
  let offenders = Audit.Verify.offenders ~present violations in
  let rings =
    Audit.Cycle.detect ~violations ~offenders
      ~connected:(fun a b -> Audit.Verify.consistent_nonzero acc a b)
  in
  let pairwise =
    match (offenders, violations) with
    | [], [] -> []
    | [], _ -> Credit.Audit.implicated violations
    | _, _ -> offenders
  in
  let suspects = Audit.Cycle.attribute ~suspects:pairwise rings in
  let convicted =
    List.sort_uniq compare (offenders @ Audit.Cycle.convicted rings)
  in
  let cleared = Audit.Cycle.cleared rings in
  if tracing lead then begin
    let ring_volume =
      List.fold_left (fun acc (r : Audit.Cycle.ring) -> acc + r.residue) 0 rings
    in
    (* Identity lists so online checkers can test membership, not just
       counts.  [ring_isps] carries only the cycle detector's
       convictions: majority offenders can be transient (in-flight
       traffic at the snapshot) and are not held to the ring
       attribution's soundness bar. *)
    Obs.Trace.span_end lead.tracer ~actor:(-1) ~span:audit.span
      (Bank_audit_end
         {
           seq = audit.audit_seq;
           violations = List.length violations;
           suspects = List.length suspects;
           absent = List.length absent;
           rings = List.length rings;
           convicted = List.length convicted;
           cleared = List.length cleared;
           lied_volume = Audit.Verify.lied_volume violations;
           ring_volume;
           convicted_isps = convicted;
           ring_isps = Audit.Cycle.convicted rings;
           cleared_isps = cleared;
         })
  end;
  (* A closed round never replays: every member checkpoints. *)
  Array.iter (fun t -> Journal.checkpoint t.wal t) members;
  { seq = audit.audit_seq; violations; suspects; convicted; rings; cleared; absent }

let on_payload t ~from_isp payload =
  match (payload : Wire.payload) with
  | Wire.Buy { amount; nonce } -> (
      match cached_reply t ~from_isp nonce with
      | Some payload ->
          t.replays_dropped <- t.replays_dropped + 1;
          if tracing t then
            ev t
              (Bank_buy_replay
                 { isp = from_isp; nonce = Int64.to_int nonce; amount });
          reply t payload
      | None ->
          let accepted = t.account.(from_isp) >= amount in
          let payload =
            if accepted then begin
              t.account.(from_isp) <- t.account.(from_isp) - amount;
              t.outstanding <- t.outstanding + amount;
              t.buys <- t.buys + 1;
              Wire.Buy_reply { nonce; accepted = true }
            end
            else begin
              t.buys_rejected <- t.buys_rejected + 1;
              Wire.Buy_reply { nonce; accepted = false }
            end
          in
          if tracing t then
            ev t
              (Bank_buy
                 { isp = from_isp; nonce = Int64.to_int nonce; amount; accepted });
          cache_reply t ~from_isp nonce payload;
          reply t payload)
  | Wire.Sell { amount; nonce } -> (
      match cached_reply t ~from_isp nonce with
      | Some payload ->
          t.replays_dropped <- t.replays_dropped + 1;
          if tracing t then
            ev t
              (Bank_sell_replay
                 { isp = from_isp; nonce = Int64.to_int nonce; amount });
          reply t payload
      | None ->
          t.account.(from_isp) <- t.account.(from_isp) + amount;
          t.outstanding <- t.outstanding - amount;
          t.sells <- t.sells + 1;
          if tracing t then
            ev t (Bank_sell { isp = from_isp; nonce = Int64.to_int nonce; amount });
          let payload = Wire.Sell_reply { nonce } in
          cache_reply t ~from_isp nonce payload;
          reply t payload)
  | Wire.Audit_reply { isp; seq; credit } -> (
      (* While the round is open, an ISP that already answered may
         replace its row: a receive stamped with this round can arrive
         after its reply went out (the sender's request was delayed, so
         it charged mail before freezing), and the amended reply books
         it back into the round the sender reported it in.  Last write
         wins; a duplicated reply re-asserts the same row.  Absent ISPs
         (partition-severed at round start) stay excluded — their
         reconciliation belongs to the carry matrix, not a late row. *)
      match t.audit with
      | Some audit
        when audit.audit_seq = seq && isp = from_isp
             && not (List.mem isp audit.absent) ->
          let first = audit.awaiting.(isp) in
          audit.reported.(isp) <- credit;
          if first then begin
            audit.awaiting.(isp) <- false;
            audit.left <- audit.left - 1
          end;
          if tracing t then
            ev t (Bank_audit_reply { isp; seq; amended = not first });
          Audit_progress
      | Some _ -> Rejected Wrong_state
      | None -> Rejected Wrong_state)
  | Wire.Buy_reply _ | Wire.Sell_reply _ | Wire.Audit_request _
  | Wire.Transfer _ | Wire.Transfer_ack _ ->
      Rejected Wrong_direction

let on_isp_message_exec t ~from_isp sealed =
  t.messages_in <- t.messages_in + 1;
  let result =
    if from_isp < 0 || from_isp >= t.config.n_isps then Rejected Unknown_isp
    else if not t.config.compliant.(from_isp) then Rejected Non_compliant
    else
      match Wire.open_at_bank t.secret sealed with
      | None -> Rejected Unreadable
      | Some payload -> on_payload t ~from_isp payload
  in
  (match result with
  | Rejected reason ->
      t.rejects.(reject_index reason) <- t.rejects.(reject_index reason) + 1;
      if tracing t then
        ev t (Bank_reject { isp = from_isp; reason = reject_to_string reason })
  | Reply _ | Audit_progress | Audit_complete _ -> ());
  result

let audit_collected t =
  match t.audit with Some a -> a.left = 0 | None -> false

(* A message that leaves this bank's round collected asks [close]
   whether the round closes now.  If it does, the close checkpointed
   every member instead of this message being appended: a completed
   round must never replay (its result already reached the world),
   and the log stays bounded by the open round's traffic. *)
let on_isp_message ?close t ~from_isp sealed =
  let result = on_isp_message_exec t ~from_isp sealed in
  let closed =
    match result with
    | Audit_progress when audit_collected t -> (
        match close with
        | None -> Some (close_round [| t |])
        | Some close -> close ())
    | Reply _ | Audit_progress | Audit_complete _ | Rejected _ -> None
  in
  match closed with
  | Some r -> Audit_complete r
  | None ->
      Journal.append t.wal t ~flush:true (fun w ->
          Persist.Codec.W.u8 w tag_msg;
          Persist.Codec.W.int w from_isp;
          Toycrypto.Seal.encode_bin w sealed);
      result

(* The compliant ISPs this bank audits (ascending), split by [except]
   into the absent and the awaited. *)
let round_plan t except =
  List.filter (Array.get t.config.compliant) (List.init t.config.n_isps Fun.id)
  |> List.partition (fun i -> List.mem i except)

let start_audit_exec t (absent, waiting) ~span =
  let awaiting = Array.make t.config.n_isps false in
  List.iter (fun i -> awaiting.(i) <- true) waiting;
  t.audit <-
    Some
      {
        audit_seq = t.seq;
        awaiting;
        left = List.length waiting;
        absent;
        reported = Array.make t.config.n_isps [||];
        span;
      };
  List.map
    (fun isp ->
      t.messages_out <- t.messages_out + 1;
      (isp, Wire.sign_by_bank t.secret (Wire.Audit_request { seq = t.seq })))
    waiting

let start_round ?(except = []) members =
  if Array.exists (fun t -> t.audit <> None) members then
    invalid_arg "Bank.start_audit: audit already in progress";
  let plans = Array.map (fun t -> round_plan t except) members in
  if Array.for_all (fun (_, waiting) -> waiting = []) plans then
    invalid_arg "Bank.start_audit: every compliant ISP excluded";
  let lead = members.(0) in
  let span =
    if tracing lead then
      Obs.Trace.span_begin lead.tracer ~actor:(-1)
        (Bank_audit_begin
           {
             seq = lead.seq;
             absent = Array.fold_left (fun n (absent, _) -> n + List.length absent) 0 plans;
           })
    else 0
  in
  List.concat
    (List.mapi
       (fun m t ->
         let requests = start_audit_exec t plans.(m) ~span:(if m = 0 then span else 0) in
         Journal.append t.wal t ~flush:true (fun w ->
             Persist.Codec.W.u8 w tag_start;
             Persist.Codec.W.list Persist.Codec.W.int w except);
         requests)
       (Array.to_list members))

let start_audit ?except t = start_round ?except [| t |]

let audit_in_progress t = t.audit <> None

(* Re-issue the current round's request for one straggler — the
   recovery handshake: an ISP restarting after a crash asks the bank
   for pending protocol state before reopening for business, so its
   snapshot happens before any post-recovery mail can straddle the
   epoch boundary. *)
let resend_audit_request_exec t ~isp =
  match t.audit with
  | Some audit when isp >= 0 && isp < t.config.n_isps && audit.awaiting.(isp) ->
      t.messages_out <- t.messages_out + 1;
      Some (Wire.sign_by_bank t.secret (Wire.Audit_request { seq = audit.audit_seq }))
  | Some _ | None -> None

let resend_audit_request t ~isp =
  let signed = resend_audit_request_exec t ~isp in
  if signed <> None then
    Journal.append t.wal t ~flush:true (fun w ->
        Persist.Codec.W.u8 w tag_resend;
        Persist.Codec.W.int w isp);
  signed

let audit_seq (t : t) = t.seq

let awaits_reply t ~seq ~isp =
  match t.audit with
  | Some audit -> audit.audit_seq = seq && audit.awaiting.(isp)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Crash and WAL recovery                                              *)
(* ------------------------------------------------------------------ *)

let power_cut t = Journal.power_cut t.wal

(* Replay re-runs the [_exec] bodies, never the logging wrappers, so it
   appends nothing. *)
let replay_record t tag r =
  if tag = tag_msg then begin
    let from_isp = Persist.Codec.R.int r in
    let sealed = Toycrypto.Seal.decode_bin r in
    ignore (on_isp_message_exec t ~from_isp sealed)
  end
  else if tag = tag_start then begin
    let except = Persist.Codec.R.list Persist.Codec.R.int r in
    ignore (start_audit_exec t (round_plan t except) ~span:0)
  end
  else if tag = tag_resend then begin
    let isp = Persist.Codec.R.int r in
    ignore (resend_audit_request_exec t ~isp)
  end
  else Journal.unknown_tag r tag

let recover_wal t =
  Journal.recover t.wal t ~name:"Bank.recover_wal" ~tracer:t.tracer ~set_tracer
    ~replay:replay_record ~after:ignore

type stats = {
  buys : int;
  buys_rejected : int;
  sells : int;
  replays_dropped : int;
  audits_completed : int;
  messages_in : int;
  messages_out : int;
  rejects : (reject * int) list;
}

let reject_counts rejects =
  List.map (fun reason -> (reason, rejects.(reject_index reason))) all_rejects

let stats (t : t) =
  {
    buys = t.buys;
    buys_rejected = t.buys_rejected;
    sells = t.sells;
    replays_dropped = t.replays_dropped;
    audits_completed = t.audits_completed;
    messages_in = t.messages_in;
    messages_out = t.messages_out;
    rejects = reject_counts t.rejects;
  }
