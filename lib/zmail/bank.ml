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
   than free-form strings) makes forgery, replay and wrong-state
   rejections distinguishable in stats and experiment tables. *)
type reject =
  | Unknown_isp
  | Non_compliant
  | Unreadable
  | Foreign_bank
  | Replayed
  | Wrong_state
  | Wrong_direction

let all_rejects =
  [ Unknown_isp; Non_compliant; Unreadable; Foreign_bank; Replayed;
    Wrong_state; Wrong_direction ]

let n_reject_reasons = List.length all_rejects

let reject_index = function
  | Unknown_isp -> 0
  | Non_compliant -> 1
  | Unreadable -> 2
  | Foreign_bank -> 3
  | Replayed -> 4
  | Wrong_state -> 5
  | Wrong_direction -> 6

let reject_to_string = function
  | Unknown_isp -> "unknown ISP"
  | Non_compliant -> "non-compliant ISP"
  | Unreadable -> "unreadable (forged or corrupted)"
  | Foreign_bank -> "sealed to a foreign bank"
  | Replayed -> "replayed request"
  | Wrong_state -> "wrong state for this message"
  | Wrong_direction -> "bank-origin payload from an ISP"

type audit_state = {
  audit_seq : int;
  mutable waiting : int list;
  absent : int list;  (* excluded at round start: unreachable, not guilty *)
  reported : (int * int) array array;
      (* per-ISP sparse rows as they came off the wire *)
  span : int;  (* trace span opened at start_audit *)
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
  (* Write-ahead-log plumbing, mirroring [Isp]: [disk = None] keeps
     the bank implicitly durable with zero overhead.  The bank's
     message path draws no randomness ([sign_by_bank] and
     [open_at_bank] are deterministic), so replaying logged inputs
     rebuilds the reply cache and audit state byte-identically. *)
  disk : Sim.Disk.t option;
  mutable wal_seq : int;
  mutable wal_since_checkpoint : int;
  mutable wal_appended : int;
  mutable wal_replayed : int;
  mutable replaying : bool;
}

let set_tracer t tracer = t.tracer <- tracer

let ev t name fields =
  if Obs.Trace.active t.tracer then
    Obs.Trace.emit t.tracer ~fields ~comp:"bank" name

let public_key t = t.public
let account_balance t ~isp = t.account.(isp)
let outstanding_epennies t = t.outstanding
let disk t = t.disk
let wal_appended t = t.wal_appended
let wal_replayed t = t.wal_replayed

(* ------------------------------------------------------------------ *)
(* State capture                                                       *)
(* ------------------------------------------------------------------ *)

(* The keypair is not captured: it is derived deterministically from
   the creation RNG, so the world-rebuild that precedes a restore
   regenerates the identical keys.  The reply cache is sorted by
   (isp, nonce) so equal banks encode identically regardless of
   Hashtbl internals.

   [encode_kernel] is the protocol state only — the payload of WAL
   checkpoint records; the public [encode_state] additionally captures
   the storage device and WAL bookkeeping when a disk is attached. *)
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
      list int w a.waiting;
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
     a reference to it (callers poll {!audit_waiting} instead). *)
  t.audit <-
    opt
      (fun r ->
        let audit_seq = int r in
        let waiting = list int r in
        let absent = list int r in
        let reported = array (array (pair int int)) r in
        let span = int r in
        if Array.length reported <> t.config.n_isps then
          corrupt r "Bank: audit matrix size mismatch";
        { audit_seq; waiting; absent; reported; span })
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
  match t.disk with
  | None -> ()
  | Some d ->
      Sim.Disk.encode_state w d;
      let open Persist.Codec.W in
      int w t.wal_seq;
      int w t.wal_since_checkpoint;
      int w t.wal_appended;
      int w t.wal_replayed

let restore_state r t =
  restore_kernel r t;
  match t.disk with
  | None -> ()
  | Some d ->
      Sim.Disk.restore_state r d;
      let open Persist.Codec.R in
      t.wal_seq <- int r;
      t.wal_since_checkpoint <- int r;
      t.wal_appended <- int r;
      t.wal_replayed <- int r

(* CRC-trailed kernel image, the payload of WAL checkpoint records —
   the same discipline as [Isp.durable_image]. *)
let durable_image t =
  let body = Persist.Codec.to_string encode_kernel t in
  let w = Persist.Codec.W.create () in
  Persist.Codec.W.str w body;
  Persist.Codec.W.u32 w (Persist.Codec.Crc32.string body);
  Persist.Codec.W.contents w

let restore_image t ~image =
  let restore r =
    let body = Persist.Codec.R.str r in
    let crc = Persist.Codec.R.u32 r in
    if Persist.Codec.Crc32.string body <> crc then
      Persist.Codec.R.corrupt r "durable image CRC mismatch";
    match Persist.Codec.decode (fun r -> restore_kernel r t) body with
    | Ok () -> ()
    | Error msg -> Persist.Codec.R.corrupt r msg
  in
  Persist.Codec.decode restore image

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
   traffic. *)

let tag_checkpoint = 0
let tag_msg = 1
let tag_start = 2
let tag_resend = 3

let wal_compact_after = 512

let checkpoint_frame t =
  let payload =
    Persist.Codec.to_string
      (fun w () ->
        Persist.Codec.W.u8 w tag_checkpoint;
        Persist.Codec.W.str w (durable_image t))
      ()
  in
  Persist.Wal.frame ~seq:0 payload

let wal_checkpoint t =
  match t.disk with
  | None -> ()
  | Some d ->
      Sim.Disk.reset_to d (checkpoint_frame t);
      t.wal_seq <- 1;
      t.wal_since_checkpoint <- 0

let wal_append t writer =
  match t.disk with
  | None -> ()
  | Some d ->
      if not t.replaying then begin
        let payload = Persist.Codec.to_string (fun w () -> writer w) () in
        Sim.Disk.append d (Persist.Wal.frame ~seq:t.wal_seq payload);
        t.wal_seq <- t.wal_seq + 1;
        t.wal_appended <- t.wal_appended + 1;
        t.wal_since_checkpoint <- t.wal_since_checkpoint + 1;
        Sim.Disk.flush d;
        if t.wal_since_checkpoint >= wal_compact_after then wal_checkpoint t
      end

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
      disk;
      wal_seq = 0;
      wal_since_checkpoint = 0;
      wal_appended = 0;
      wal_replayed = 0;
      replaying = false;
    }
  in
  wal_checkpoint t;
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

(* Close the round.  The pair check runs over the ISPs that actually
   reported: each reporter's row is adjusted by the carry of what its
   absent-round peers' earlier reports claimed against it, so a row
   that is cumulative over missed rounds reconciles to zero instead of
   implicating both sides of a healed partition.  Then the carry is
   rolled forward: reporters' rows are consumed, and what they just
   claimed against this round's absentees is accumulated for the round
   those absentees eventually answer.

   Everything runs through the sparse claim accumulator: cost follows
   the populated cell count, never n^2.  After the pairwise pass the
   cycle-sum detector walks the violating edges for collusion rings —
   coordinated liars whose star balances at an honest victim — and
   attribution convicts the ring while clearing the framed center. *)
let finish_audit t (audit : audit_state) =
  let n = t.config.n_isps in
  let present = Array.make n false in
  for i = 0 to n - 1 do
    present.(i) <- t.config.compliant.(i) && not (List.mem i audit.absent)
  done;
  let expected_cells =
    Array.fold_left (fun a row -> a + Array.length row) 0 audit.reported
    + Array.fold_left (fun a row -> a + Audit.Row.cardinal row) 0 t.carry
  in
  let acc = Audit.Verify.create ~expected_cells ~present () in
  Array.iteri
    (fun a row ->
      if present.(a) then
        Array.iter (fun (b, v) -> Audit.Verify.claim acc ~reporter:a ~peer:b v) row)
    audit.reported;
  (* Carry adjustment: [carry.(x)] cell [y -> v] means reporter [y]
     claimed [v] against [x] in a round [x] missed; feed it as part of
     [y]'s row so [x]'s cumulative report reconciles against it.
     Claims touching a still-absent [x] are ignored by the accumulator
     (x is not present) and stay carried. *)
  Array.iteri
    (fun x row ->
      Audit.Row.iter (fun y v -> Audit.Verify.claim acc ~reporter:y ~peer:x v) row)
    t.carry;
  let violations = Audit.Verify.violations acc in
  for x = 0 to n - 1 do
    if present.(x) then Audit.Row.clear t.carry.(x)
  done;
  let absent_compliant = Hashtbl.create 8 in
  List.iter
    (fun x -> if t.config.compliant.(x) then Hashtbl.replace absent_compliant x ())
    audit.absent;
  if Hashtbl.length absent_compliant > 0 then
    Array.iteri
      (fun y row ->
        if present.(y) then
          Array.iter
            (fun (b, v) ->
              if b >= 0 && b < n && Hashtbl.mem absent_compliant b then
                Audit.Row.add t.carry.(b) y v)
            row)
      audit.reported;
  t.audit <- None;
  t.seq <- t.seq + 1;
  t.audits_completed <- t.audits_completed + 1;
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
  if Obs.Trace.active t.tracer then begin
    let ring_volume =
      List.fold_left (fun acc (r : Audit.Cycle.ring) -> acc + r.residue) 0 rings
    in
    Obs.Trace.span_end t.tracer ~span:audit.span ~comp:"bank" "audit"
      ~fields:
        [ ("seq", Obs.Trace.Int audit.audit_seq);
          ("violations", Obs.Trace.Int (List.length violations));
          ("suspects", Obs.Trace.Int (List.length suspects));
          ("absent", Obs.Trace.Int (List.length audit.absent));
          ("rings", Obs.Trace.Int (List.length rings));
          ("convicted", Obs.Trace.Int (List.length convicted));
          ("cleared", Obs.Trace.Int (List.length cleared));
          ("lied_volume", Obs.Trace.Int (Audit.Verify.lied_volume violations));
          ("ring_volume", Obs.Trace.Int ring_volume);
          (* Identity lists (comma-joined) so online checkers can test
             membership, not just counts.  [ring_isps] carries only the
             cycle detector's convictions: majority offenders can be
             transient (in-flight traffic at the snapshot) and are not
             held to the ring attribution's soundness bar. *)
          ( "convicted_isps",
            Obs.Trace.Str (String.concat "," (List.map string_of_int convicted)) );
          ( "ring_isps",
            Obs.Trace.Str
              (String.concat ","
                 (List.map string_of_int (Audit.Cycle.convicted rings))) );
          ( "cleared_isps",
            Obs.Trace.Str (String.concat "," (List.map string_of_int cleared)) ) ]
  end;
  Audit_complete
    { seq = audit.audit_seq; violations; suspects; convicted; rings; cleared;
      absent = audit.absent }

let on_payload t ~from_isp payload =
  match (payload : Wire.payload) with
  | Wire.Buy { amount; nonce } -> (
      match cached_reply t ~from_isp nonce with
      | Some payload ->
          t.replays_dropped <- t.replays_dropped + 1;
          ev t "buy"
            [ ("isp", Obs.Trace.Int from_isp);
              ("nonce", Obs.Trace.Int (Int64.to_int nonce));
              ("amount", Obs.Trace.Int amount);
              ("replay", Obs.Trace.Bool true) ];
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
          ev t "buy"
            [ ("isp", Obs.Trace.Int from_isp);
              ("nonce", Obs.Trace.Int (Int64.to_int nonce));
              ("amount", Obs.Trace.Int amount);
              ("accepted", Obs.Trace.Bool accepted);
              ("replay", Obs.Trace.Bool false) ];
          cache_reply t ~from_isp nonce payload;
          reply t payload)
  | Wire.Sell { amount; nonce } -> (
      match cached_reply t ~from_isp nonce with
      | Some payload ->
          t.replays_dropped <- t.replays_dropped + 1;
          ev t "sell"
            [ ("isp", Obs.Trace.Int from_isp);
              ("nonce", Obs.Trace.Int (Int64.to_int nonce));
              ("amount", Obs.Trace.Int amount);
              ("replay", Obs.Trace.Bool true) ];
          reply t payload
      | None ->
          t.account.(from_isp) <- t.account.(from_isp) + amount;
          t.outstanding <- t.outstanding - amount;
          t.sells <- t.sells + 1;
          ev t "sell"
            [ ("isp", Obs.Trace.Int from_isp);
              ("nonce", Obs.Trace.Int (Int64.to_int nonce));
              ("amount", Obs.Trace.Int amount);
              ("replay", Obs.Trace.Bool false) ];
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
          let first = List.mem isp audit.waiting in
          audit.reported.(isp) <- credit;
          if first then
            audit.waiting <- List.filter (fun i -> i <> isp) audit.waiting;
          ev t "audit_reply"
            [ ("isp", Obs.Trace.Int isp);
              ("seq", Obs.Trace.Int seq);
              ("amended", Obs.Trace.Bool (not first)) ];
          if audit.waiting = [] then finish_audit t audit else Audit_progress
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
      ev t "reject"
        [ ("isp", Obs.Trace.Int from_isp);
          ("reason", Obs.Trace.Str (reject_to_string reason)) ]
  | Reply _ | Audit_progress | Audit_complete _ -> ());
  result

let on_isp_message t ~from_isp sealed =
  let result = on_isp_message_exec t ~from_isp sealed in
  (match result with
  | Audit_complete _ ->
      (* The message that closed the round is folded into a fresh
         checkpoint rather than appended: a completed round must never
         replay (its result already reached the world), and the log
         stays bounded by the open round's traffic. *)
      wal_checkpoint t
  | Reply _ | Audit_progress | Rejected _ ->
      wal_append t (fun w ->
          Persist.Codec.W.u8 w tag_msg;
          Persist.Codec.W.int w from_isp;
          Toycrypto.Seal.encode_bin w sealed));
  result

let start_audit_exec ?(except = []) t =
  if t.audit <> None then invalid_arg "Bank.start_audit: audit already in progress";
  let compliant_isps =
    List.filter
      (fun i -> t.config.compliant.(i))
      (List.init t.config.n_isps (fun i -> i))
  in
  let absent = List.filter (fun i -> List.mem i except) compliant_isps in
  let waiting = List.filter (fun i -> not (List.mem i except)) compliant_isps in
  if waiting = [] then
    invalid_arg "Bank.start_audit: every compliant ISP excluded";
  let span =
    Obs.Trace.span_begin t.tracer ~comp:"bank" "audit"
      ~fields:
        [ ("seq", Obs.Trace.Int t.seq);
          ("absent", Obs.Trace.Int (List.length absent)) ]
  in
  t.audit <-
    Some
      {
        audit_seq = t.seq;
        waiting;
        absent;
        reported = Array.make t.config.n_isps [||];
        span;
      };
  List.map
    (fun isp ->
      t.messages_out <- t.messages_out + 1;
      (isp, Wire.sign_by_bank t.secret (Wire.Audit_request { seq = t.seq })))
    waiting

let start_audit ?except t =
  let requests = start_audit_exec ?except t in
  wal_append t (fun w ->
      Persist.Codec.W.u8 w tag_start;
      Persist.Codec.W.list Persist.Codec.W.int w (Option.value ~default:[] except));
  requests

let audit_in_progress t = t.audit <> None

(* Re-issue the current round's request for one straggler — the
   recovery handshake: an ISP restarting after a crash asks the bank
   for pending protocol state before reopening for business, so its
   snapshot happens before any post-recovery mail can straddle the
   epoch boundary. *)
let resend_audit_request_exec t ~isp =
  match t.audit with
  | Some audit when List.mem isp audit.waiting ->
      t.messages_out <- t.messages_out + 1;
      Some (Wire.sign_by_bank t.secret (Wire.Audit_request { seq = audit.audit_seq }))
  | Some _ | None -> None

let resend_audit_request t ~isp =
  let signed = resend_audit_request_exec t ~isp in
  if signed <> None then
    wal_append t (fun w ->
        Persist.Codec.W.u8 w tag_resend;
        Persist.Codec.W.int w isp);
  signed

let audit_waiting t =
  match t.audit with
  | None -> None
  | Some audit -> Some (audit.audit_seq, audit.waiting)

(* ------------------------------------------------------------------ *)
(* Crash and WAL recovery                                              *)
(* ------------------------------------------------------------------ *)

let power_cut t = Option.iter Sim.Disk.power_cut t.disk

let replay_record t payload =
  let r = Persist.Codec.R.of_string payload in
  let tag = Persist.Codec.R.u8 r in
  if tag = tag_msg then begin
    let from_isp = Persist.Codec.R.int r in
    let sealed = Toycrypto.Seal.decode_bin r in
    ignore (on_isp_message_exec t ~from_isp sealed)
  end
  else if tag = tag_start then begin
    let except = Persist.Codec.R.list Persist.Codec.R.int r in
    ignore (start_audit_exec ~except t)
  end
  else if tag = tag_resend then begin
    let isp = Persist.Codec.R.int r in
    ignore (resend_audit_request_exec t ~isp)
  end
  else Persist.Codec.R.corrupt r (Printf.sprintf "unknown bank WAL record tag %d" tag);
  Persist.Codec.R.expect_end r

let recover_wal t =
  match t.disk with
  | None -> Error "Bank.recover_wal: bank has no disk"
  | Some d -> (
      let scan = Persist.Wal.scan (Sim.Disk.contents d) in
      match scan.Persist.Wal.records with
      | [] -> Error "Bank.recover_wal: no intact checkpoint record in the log"
      | first :: deltas -> (
          let checkpoint =
            let open Persist.Codec in
            decode
              (fun r ->
                if R.u8 r <> tag_checkpoint then
                  R.corrupt r "first bank WAL record is not a checkpoint";
                R.str r)
              first
          in
          match checkpoint with
          | Error msg -> Error ("Bank.recover_wal: " ^ msg)
          | Ok image -> (
              match restore_image t ~image with
              | Error msg ->
                  Error ("Bank.recover_wal: corrupt checkpoint image: " ^ msg)
              | Ok () -> (
                  let saved_tracer = t.tracer in
                  t.replaying <- true;
                  t.tracer <- Obs.Trace.none;
                  let outcome =
                    try
                      List.iter (replay_record t) deltas;
                      Ok ()
                    with
                    | Persist.Codec.Corrupt msg ->
                        Error ("Bank.recover_wal: " ^ msg)
                    | Failure msg | Invalid_argument msg ->
                        Error ("Bank.recover_wal: replay diverged: " ^ msg)
                  in
                  t.replaying <- false;
                  t.tracer <- saved_tracer;
                  match outcome with
                  | Error _ as e -> e
                  | Ok () ->
                      t.wal_replayed <- List.length deltas;
                      wal_checkpoint t;
                      Ok ()))))

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
