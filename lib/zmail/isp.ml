type cheat = Honest | Fake_receives of int | Unreported_sends of float

type config = {
  index : int;
  n_isps : int;
  n_users : int;
  compliant : bool array;
  bank_public : Toycrypto.Rsa.public;
  initial_balance : Epenny.amount;
  initial_account : int;
  daily_limit : int;
  minavail : Epenny.amount;
  maxavail : Epenny.amount;
  initial_avail : Epenny.amount;
  buy_amount : Epenny.amount;
  replay_hardening : bool;
  cheat : cheat;
}

let default_config ~index ~n_isps ~n_users ~compliant ~bank_public =
  {
    index;
    n_isps;
    n_users;
    compliant;
    bank_public;
    initial_balance = 100;
    initial_account = 1000;
    daily_limit = 500;
    minavail = 200;
    maxavail = 5000;
    initial_avail = 1000;
    buy_amount = 1000;
    replay_hardening = true;
    cheat = Honest;
  }

(* Outstanding-request state for the §4.3 buy/sell exchanges.  [span]
   is the trace span opened at the request, closed by the reply. *)
type pending = { nonce : int64; amount : Epenny.amount; span : int }

type t = {
  config : config;
  rng : Sim.Rng.t;
  nonces : Toycrypto.Nonce.t;
  ledger : Ledger.t;
  credit : Credit.t;
  mutable cansend : bool;
  mutable pending_buy : pending option;  (** The paper's [~canbuy] + [ns1]. *)
  mutable pending_sell : pending option;
  mutable last_buy : pending option;
      (** Most recently applied buy, kept to reproduce the paper's
          literal (replay-unsafe) acceptance rule when
          [replay_hardening] is off. *)
  mutable last_sell : pending option;
  mutable seq : int;  (** Next expected audit sequence number. *)
  mutable freeze_for : int;
      (** The audit round a current freeze answers; meaningful only
          while [not cansend].  Usually [seq], but larger after the
          bank skipped us in rounds we were unreachable for. *)
  mutable audit_tamper :
    (seq:int -> (int * int) array -> (int * int) array) option;
      (** Byzantine hook: rewrites the sparse credit row reported at
          {!thaw}.  Reports only — the real vector and the money are
          untouched. *)
  mutable amend_hook : (seq:int -> Toycrypto.Seal.sealed -> bool) option;
      (** Wiring, not state (like the tracer): the world's transport
          for amended audit replies.  Called from the delivery path
          when a receive stamped with the last answered round is
          folded into the retained report row — the sealed replacement
          reply must reach the bank while that round is still open. *)
  mutable pending_warnings : int list;  (** Users newly at their limit. *)
  mutable warned_today : bool array;
  mutable sent_paid : int;
  mutable sent_free : int;
  mutable received_paid : int;
  mutable cheat_minted : Epenny.amount;
  mutable refunds : int;
  mutable crashes : int;
  mutable tracer : Obs.Trace.t;
  wal : t Journal.t;
      (** {!Journal.off} without a disk: logs nothing, pays nothing per
          operation, cannot recover. *)
}

let set_tracer t tracer =
  t.tracer <- tracer;
  Credit.set_tracer t.credit ~owner:t.config.index tracer

(* Call sites guard on [tracing] so the payload (an argument, so built
   eagerly) is not allocated when no tracer is attached. *)
let tracing t = Obs.Trace.active t.tracer

let ev t payload = Obs.Trace.emit t.tracer ~actor:t.config.index payload

let index t = t.config.index
let ledger t = t.ledger
let credit_vector t = Credit.snapshot t.credit
let early_receives t = Credit.early_pending t.credit
let frozen t = not t.cansend
let frozen_for t = if t.cansend then None else Some t.freeze_for
let pending_buy_nonce t = Option.map (fun p -> p.nonce) t.pending_buy
let pending_sell_nonce t = Option.map (fun p -> p.nonce) t.pending_sell
let audit_seq t = t.seq
let set_audit_tamper t f = t.audit_tamper <- f
let set_amend_hook t f = t.amend_hook <- f
let disk t = Journal.disk t.wal

(* ------------------------------------------------------------------ *)
(* State capture                                                       *)
(* ------------------------------------------------------------------ *)

let encode_pending w (p : pending) =
  let open Persist.Codec.W in
  i64 w p.nonce;
  int w p.amount;
  int w p.span

let decode_pending r =
  let open Persist.Codec.R in
  let nonce = i64 r in
  let amount = int r in
  let span = int r in
  { nonce; amount; span }

(* The tracer binding is wiring, not state; the config is identity and
   is re-created by whoever rebuilds the world.  Everything else —
   including the RNG and nonce streams, which must continue bit-for-bit
   for a resumed run to match the straight-through one — is here.

   [encode_kernel] is the protocol state only, the body of the WAL's
   checkpoint images; the public {!encode_state} adds the journal (the
   storage device and WAL bookkeeping) when a disk is attached. *)
let encode_kernel w t =
  let open Persist.Codec.W in
  Sim.Rng.encode_state w t.rng;
  Toycrypto.Nonce.encode_state w t.nonces;
  Ledger.encode_state w t.ledger;
  Credit.encode_state w t.credit;
  bool w t.cansend;
  opt encode_pending w t.pending_buy;
  opt encode_pending w t.pending_sell;
  opt encode_pending w t.last_buy;
  opt encode_pending w t.last_sell;
  int w t.seq;
  int w t.freeze_for;
  list int w t.pending_warnings;
  array bool w t.warned_today;
  int w t.sent_paid;
  int w t.sent_free;
  int w t.received_paid;
  int w t.cheat_minted;
  int w t.refunds;
  int w t.crashes

let restore_kernel r t =
  let open Persist.Codec.R in
  Sim.Rng.restore_state r t.rng;
  Toycrypto.Nonce.restore_state r t.nonces;
  Ledger.restore_state r t.ledger;
  Credit.restore_state r t.credit;
  t.cansend <- bool r;
  t.pending_buy <- opt decode_pending r;
  t.pending_sell <- opt decode_pending r;
  t.last_buy <- opt decode_pending r;
  t.last_sell <- opt decode_pending r;
  t.seq <- int r;
  t.freeze_for <- int r;
  t.pending_warnings <- list int r;
  let warned = array bool r in
  if Array.length warned <> Array.length t.warned_today then
    corrupt r "Isp: warned_today size mismatch";
  Array.blit warned 0 t.warned_today 0 (Array.length warned);
  t.sent_paid <- int r;
  t.sent_free <- int r;
  t.received_paid <- int r;
  t.cheat_minted <- int r;
  t.refunds <- int r;
  t.crashes <- int r

let encode_state w t =
  encode_kernel w t;
  Journal.encode_state w t.wal

let restore_state r t =
  restore_kernel r t;
  Journal.restore_state r t.wal

let durable_image t = Journal.image encode_kernel t

(* ------------------------------------------------------------------ *)
(* The write-ahead log                                                 *)
(* ------------------------------------------------------------------ *)

(* Record taxonomy: every kernel entry point that can mutate state or
   advance the RNG/nonce streams logs the {e inputs} of the call (plus
   the one environment-dependent outcome, the amend-transport verdict,
   that replay cannot re-derive).  Replay re-runs the same mutation
   code from the last checkpoint image — which restored the RNG and
   nonce streams — so every probabilistic branch and every sealing
   draw comes out identically, and the recovered kernel matches the
   lost one bit for bit up to the last flushed record.

   Flush policy (group commit): a record whose operation moved money
   or emitted a message to the outside world flushes immediately — the
   effect must not be observable anywhere while the record that
   explains it is volatile.  Records that only touch counters or
   warning bookkeeping (free sends, blocked sends, warning drains,
   honest end-of-day resets, audit freezes) are lazy: they flush when
   [wal_group] of them accumulate or when the next mandatory record
   flushes the whole tail.  Losing a lazy suffix in a power cut
   therefore never loses a penny, which is what E23 asserts cell by
   cell.  (An audit freeze is volatile by design: recovery lifts it
   and the bank's request retransmission restarts it.)

   Crash points in this simulation are event boundaries, so a record
   appended and flushed inside the same engine callback as its
   operation is atomic with it; the meaningful write-ahead guarantee
   is "flushed before the next event can observe the effect", which
   the policy above provides.

   Tag 0 is the journal's checkpoint record. *)

let tag_charge = 1
let tag_deliver = 2
let tag_refund = 3
let tag_topup = 4
let tag_pool = 5
let tag_bank_msg = 6
let tag_thaw = 7
let tag_end_of_day = 8
let tag_warnings = 9

let wal_appended t = Journal.appended t.wal
let wal_replayed t = Journal.replayed t.wal

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?disk ?(wal_group = 8) rng config =
  if config.index < 0 || config.index >= config.n_isps then
    invalid_arg "Isp.create: index out of range";
  if Array.length config.compliant <> config.n_isps then
    invalid_arg "Isp.create: compliance map size mismatch";
  if not config.compliant.(config.index) then
    invalid_arg "Isp.create: kernel only models compliant ISPs";
  if config.minavail >= config.maxavail then
    invalid_arg "Isp.create: minavail must be below maxavail";
  if wal_group < 1 then invalid_arg "Isp.create: wal_group must be positive";
  let rng = Sim.Rng.split rng in
  let t =
    {
      config;
      rng;
      nonces = Toycrypto.Nonce.create rng;
      ledger =
        Ledger.create ~n_users:config.n_users ~initial_balance:config.initial_balance
          ~initial_account:config.initial_account ~daily_limit:config.daily_limit
          ~initial_avail:config.initial_avail;
      credit = Credit.create ~n:config.n_isps;
      cansend = true;
      pending_buy = None;
      pending_sell = None;
      last_buy = None;
      last_sell = None;
      seq = 0;
      freeze_for = 0;
      audit_tamper = None;
      amend_hook = None;
      pending_warnings = [];
      warned_today = Array.make config.n_users false;
      sent_paid = 0;
      sent_free = 0;
      received_paid = 0;
      cheat_minted = 0;
      refunds = 0;
      crashes = 0;
      tracer = Obs.Trace.none;
      wal =
        (match disk with
        | None -> Journal.off
        | Some d ->
            Journal.create d ~commit:(Group wal_group) ~encode:encode_kernel
              ~restore:restore_kernel);
    }
  in
  (* A WAL-backed kernel is born with its initial state durable: the
     log always starts with a checkpoint record, so recovery never has
     to guess at a baseline. *)
  Journal.checkpoint t.wal t;
  t

type send_outcome =
  | Sent_paid
  | Sent_free
  | Deferred
  | Blocked of Ledger.block

let note_limit_warning t user =
  if Ledger.sent_today t.ledger ~user >= Ledger.limit t.ledger ~user
     && not t.warned_today.(user)
  then begin
    t.warned_today.(user) <- true;
    t.pending_warnings <- user :: t.pending_warnings
  end

let skip_credit_increment t =
  match t.config.cheat with
  | Unreported_sends p -> Sim.Dist.bernoulli t.rng p
  | Honest | Fake_receives _ -> false

(* The mutation body shared by the live path and WAL replay; the
   [Deferred] guard stays in the caller so a frozen kernel logs
   nothing (it also mutates nothing and draws nothing). *)
let charge_exec t ~sender ~dest_isp =
  if not t.config.compliant.(dest_isp) then begin
    (* §4.1: mail to a non-compliant ISP is sent without charge. *)
    t.sent_free <- t.sent_free + 1;
    Sent_free
  end
  else
    match Ledger.debit_send t.ledger ~user:sender with
    | Error block ->
        note_limit_warning t sender;
        Blocked block
    | Ok () ->
        if dest_isp <> t.config.index && not (skip_credit_increment t) then
          Credit.record_send t.credit ~peer:dest_isp;
        t.sent_paid <- t.sent_paid + 1;
        if tracing t then ev t (Isp_charge { user = sender; dest = dest_isp });
        note_limit_warning t sender;
        Sent_paid

let charge_send t ~sender ~dest_isp =
  if dest_isp < 0 || dest_isp >= t.config.n_isps then
    invalid_arg "Isp.charge_send: dest_isp out of range";
  (* §4.4: during a snapshot freeze the ISP "stops sending out any
     email" — including free mail to non-compliant destinations. *)
  if not t.cansend then Deferred
  else begin
    let outcome = charge_exec t ~sender ~dest_isp in
    if Journal.logging t.wal then
      Journal.append t.wal t
        ~flush:(match outcome with Sent_paid -> true | _ -> false)
        (fun w ->
          Persist.Codec.W.u8 w tag_charge;
          Persist.Codec.W.int w sender;
          Persist.Codec.W.int w dest_isp);
    outcome
  end

(* Undo one paid send whose message bounced before delivery: the
   e-penny was riding in the message and would otherwise be destroyed.
   Restore the sender's balance and cancel the [credit+1] recorded
   toward the destination (so a clean audit stays clean).  The daily
   [sent] count is deliberately not undone: the attempt happened. *)
let refund_exec t ~sender ~dest_isp =
  Ledger.credit_receive t.ledger ~user:sender;
  if
    dest_isp >= 0
    && dest_isp < t.config.n_isps
    && dest_isp <> t.config.index
    && t.config.compliant.(dest_isp)
  then Credit.cancel_send t.credit ~peer:dest_isp;
  t.refunds <- t.refunds + 1;
  if tracing t then ev t (Isp_refund { user = sender; dest = dest_isp })

let refund_send t ~sender ~dest_isp =
  refund_exec t ~sender ~dest_isp;
  if Journal.logging t.wal then
    Journal.append t.wal t ~flush:true (fun w ->
        Persist.Codec.W.u8 w tag_refund;
        Persist.Codec.W.int w sender;
        Persist.Codec.W.int w dest_isp)

(* [sender_epoch] is the audit sequence number stamped on the message
   when the sender charged it.  A newer epoch than ours means the
   sender already snapshotted for an audit round we have yet to answer
   (our snapshot can lag after a crash): the receive then belongs to
   the next billing period, not the one we are still accumulating.  An
   older epoch means the reverse skew: the sender's audit request was
   delayed (dropped and retransmitted on a faulty bank link), so it
   charged the message before freezing for a round we already
   answered — the receive is folded into the retained report for that
   round and the amended reply re-sent while the round is open (see
   {!Credit.amend_receive}).  Adversaries don't get the amendment
   hardening: re-reporting through their tamper hook would perturb the
   tamper's own replay memory, and an honest-looking amendment would
   mask the very report the experiments measure.  The e-penny itself
   moves immediately either way — epochs only affect audit
   bookkeeping, never money.

   [replay_amend] is [None] on the live path.  During WAL replay it
   carries the logged amend-transport verdict: whether the world
   accepted the amended reply is a fact about the bank's state at the
   original instant, the one thing replay cannot re-derive, so it is
   the one outcome the record stores.  Replay then folds (or not)
   without re-sealing or re-sending anything. *)
let deliver_exec t ~replay_amend ~sender_epoch ~from_isp ~rcpt =
  Ledger.credit_receive t.ledger ~user:rcpt;
  let amended =
    if from_isp = t.config.index then false
    else begin
      match sender_epoch with
      | Some e when e > t.seq ->
          Credit.record_receive_early t.credit ~epoch:e ~peer:from_isp;
          false
      | Some e when e < t.seq ->
          let amended =
            match replay_amend with
            | Some false -> false
            | Some true ->
                Option.is_none t.audit_tamper
                && Credit.amend_receive t.credit ~epoch:e ~peer:from_isp
                     ~deliver:(fun _ -> true)
            | None -> (
                Option.is_none t.audit_tamper
                &&
                match t.amend_hook with
                | Some send ->
                    Credit.amend_receive t.credit ~epoch:e ~peer:from_isp
                      ~deliver:(fun row ->
                        send ~seq:e
                          (Wire.seal_for_bank t.rng t.config.bank_public
                             (Wire.Audit_reply
                                { isp = t.config.index; seq = e; credit = row })))
                | None -> false)
          in
          if not amended then Credit.record_receive t.credit ~peer:from_isp;
          amended
      | Some _ | None ->
          Credit.record_receive t.credit ~peer:from_isp;
          false
    end
  in
  t.received_paid <- t.received_paid + 1;
  if tracing t then ev t (Isp_settle { from = from_isp; rcpt });
  amended

let accept_delivery_stamped t ~sender_epoch ~from_isp ~rcpt =
  if not t.config.compliant.(from_isp) then `Unpaid
  else begin
    let amended = deliver_exec t ~replay_amend:None ~sender_epoch ~from_isp ~rcpt in
    if Journal.logging t.wal then
      Journal.append t.wal t ~flush:true (fun w ->
          Persist.Codec.W.u8 w tag_deliver;
          Persist.Codec.W.opt Persist.Codec.W.int w sender_epoch;
          Persist.Codec.W.int w from_isp;
          Persist.Codec.W.int w rcpt;
          Persist.Codec.W.bool w amended);
    `Paid
  end

let accept_delivery t ~from_isp ~rcpt =
  accept_delivery_stamped t ~sender_epoch:None ~from_isp ~rcpt

(* §4.2 user top-up, routed through the kernel so the transition lands
   in the WAL like every other money movement. *)
let user_topup t ~user ~amount =
  match Ledger.user_buy t.ledger ~user ~amount with
  | Error _ as e -> e
  | Ok () ->
      if Journal.logging t.wal then
        Journal.append t.wal t ~flush:true (fun w ->
            Persist.Codec.W.u8 w tag_topup;
            Persist.Codec.W.int w user;
            Persist.Codec.W.int w amount);
      Ok ()

let request_span t payload =
  if tracing t then Obs.Trace.span_begin t.tracer ~actor:t.config.index payload
  else 0

let pool_action_exec t =
  let avail = Ledger.avail t.ledger in
  if avail < t.config.minavail && t.pending_buy = None then begin
    let nonce = Toycrypto.Nonce.next t.nonces in
    let span =
      request_span t
        (Isp_buy_begin { nonce = Int64.to_int nonce; amount = t.config.buy_amount })
    in
    t.pending_buy <- Some { nonce; amount = t.config.buy_amount; span };
    Some
      (Wire.seal_for_bank t.rng t.config.bank_public
         (Wire.Buy { amount = t.config.buy_amount; nonce }))
  end
  else if avail > t.config.maxavail && t.pending_sell = None then begin
    let nonce = Toycrypto.Nonce.next t.nonces in
    (* Sell down to the midpoint of the band. *)
    let target = (t.config.minavail + t.config.maxavail) / 2 in
    let amount = max 1 (min avail (avail - target)) in
    let span =
      request_span t (Isp_sell_begin { nonce = Int64.to_int nonce; amount })
    in
    t.pending_sell <- Some { nonce; amount; span };
    Some (Wire.seal_for_bank t.rng t.config.bank_public (Wire.Sell { amount; nonce }))
  end
  else None

let pool_action t =
  let request = pool_action_exec t in
  (* Write-ahead for the request WAL proper: the pending-nonce record
     is durable before the sealed request can reach any wire.  The
     no-request path touches nothing and logs nothing. *)
  if request <> None then
    Journal.append t.wal t ~flush:true (fun w -> Persist.Codec.W.u8 w tag_pool);
  request

type reaction = No_reaction | Start_snapshot_timer

let apply_buy t ~nonce amount accepted =
  if accepted then Ledger.add_pool t.ledger amount;
  if tracing t then
    ev t (Isp_buy_apply { nonce = Int64.to_int nonce; amount; accepted })

let apply_sell t ~nonce amount =
  let taken =
    match Ledger.take_pool t.ledger amount with
    | Ok () -> amount
    | Error _ ->
        (* The pool shrank below the promised amount between request and
           reply; sell what remains. *)
        let avail = Ledger.avail t.ledger in
        (match Ledger.take_pool t.ledger avail with
        | Ok () -> avail
        | Error _ -> 0)
  in
  if tracing t then
    ev t (Isp_sell_apply { nonce = Int64.to_int nonce; amount; taken })

(* Callers test [span <> 0] first: a span was only opened while
   tracing, so an untraced run builds no payload here. *)
let close_span t span payload =
  Obs.Trace.span_end t.tracer ~actor:t.config.index ~span payload

let on_buy_reply t ~nonce ~accepted =
  match t.pending_buy with
  | Some ({ nonce = expected; amount; span } as p) when Int64.equal nonce expected ->
      t.pending_buy <- None;
      t.last_buy <- Some p;
      apply_buy t ~nonce amount accepted;
      if span <> 0 then close_span t span (Isp_buy_end { accepted })
  | Some _ -> ()  (* nonce mismatch: stale or forged reply *)
  | None -> (
      (* No outstanding buy.  The paper's literal rule only compares
         the nonce against [ns1], which still holds the last value, so
         a duplicated reply is applied twice; the hardened kernel
         drops it. *)
      match t.last_buy with
      | Some { nonce = last; amount; _ } when (not t.config.replay_hardening) && Int64.equal nonce last ->
          apply_buy t ~nonce amount accepted
      | Some _ | None -> ())

let on_sell_reply t ~nonce =
  match t.pending_sell with
  | Some ({ nonce = expected; amount; span } as p) when Int64.equal nonce expected ->
      t.pending_sell <- None;
      t.last_sell <- Some p;
      apply_sell t ~nonce amount;
      if span <> 0 then close_span t span (Isp_sell_end { accepted = true })
  | Some _ -> ()
  | None -> (
      match t.last_sell with
      | Some { nonce = last; amount; _ } when (not t.config.replay_hardening) && Int64.equal nonce last ->
          apply_sell t ~nonce amount
      | Some _ | None -> ())

let apply_bank_payload t payload =
  match payload with
  | Wire.Buy_reply { nonce; accepted } ->
      on_buy_reply t ~nonce ~accepted;
      No_reaction
  | Wire.Sell_reply { nonce } ->
      on_sell_reply t ~nonce;
      No_reaction
  | Wire.Audit_request { seq } ->
      (* [seq > t.seq] means the bank ran rounds without us (we
         were partition-severed): jump forward and answer round
         [seq] with the cumulative row covering every round we
         missed — the bank's carry matrix reconciles it against
         what our peers already reported. *)
      if seq >= t.seq && t.cansend then begin
        t.cansend <- false;
        t.freeze_for <- seq;
        if tracing t then ev t (Isp_freeze { seq });
        Start_snapshot_timer
      end
      else No_reaction
  | Wire.Buy _ | Wire.Sell _ | Wire.Audit_reply _
  | Wire.Transfer _ | Wire.Transfer_ack _ ->
      (* ISP-origin and bank-to-bank payloads signed by the bank
         make no sense at an ISP. *)
      No_reaction

let on_bank_message t signed =
  match Wire.verify_from_bank t.config.bank_public signed with
  | None -> No_reaction
  | Some payload ->
      let reaction = apply_bank_payload t payload in
      (* Replies complete a money transfer, so they flush; an audit
         freeze is volatile (recovery lifts it, the bank's request
         retransmission restarts it) and rides on group commit. *)
      let flush =
        match payload with
        | Wire.Buy_reply _ | Wire.Sell_reply _ -> true
        | _ -> false
      in
      Journal.append t.wal t ~flush (fun w ->
          Persist.Codec.W.u8 w tag_bank_msg;
          Wire.encode_bin w payload);
      reaction

let thaw_exec t =
  if t.cansend then invalid_arg "Isp.thaw: no snapshot freeze in force";
  let seq = t.freeze_for in
  let credit = Credit.report_upto t.credit ~seq in
  let credit =
    match t.audit_tamper with None -> credit | Some f -> f ~seq credit
  in
  let reply =
    Wire.seal_for_bank t.rng t.config.bank_public
      (Wire.Audit_reply { isp = t.config.index; seq; credit })
  in
  if tracing t then ev t (Isp_thaw { seq });
  Credit.reset_upto t.credit ~seq;
  t.seq <- seq + 1;
  t.cansend <- true;
  reply

let thaw t =
  let reply = thaw_exec t in
  (* The epoch advance closes a billing period; everything after it
     books into the next one, so the stamp must be durable before the
     sealed reply leaves. *)
  Journal.append t.wal t ~flush:true (fun w -> Persist.Codec.W.u8 w tag_thaw);
  reply

let apply_daily_cheat t =
  match t.config.cheat with
  | Fake_receives k ->
      for peer = 0 to t.config.n_isps - 1 do
        if peer <> t.config.index && t.config.compliant.(peer) then
          for _ = 1 to k do
            Credit.record_receive t.credit ~peer;
            (* The stolen e-penny lands on some user's balance. *)
            let user = Sim.Rng.int t.rng t.config.n_users in
            Ledger.credit_receive t.ledger ~user;
            t.cheat_minted <- t.cheat_minted + 1;
            if tracing t then ev t (Isp_mint { peer; user })
          done
      done
  | Honest | Unreported_sends _ -> ()

let end_of_day_exec t =
  apply_daily_cheat t;
  Ledger.reset_daily t.ledger;
  Array.fill t.warned_today 0 (Array.length t.warned_today) false

let end_of_day t =
  end_of_day_exec t;
  (* A cheating day mints unbacked e-pennies — money, so it flushes;
     an honest day only resets counters and rides on group commit. *)
  let minted =
    match t.config.cheat with Fake_receives k -> k > 0 | Honest | Unreported_sends _ -> false
  in
  Journal.append t.wal t ~flush:minted (fun w -> Persist.Codec.W.u8 w tag_end_of_day)

let limit_warnings_exec t =
  let warnings = List.rev t.pending_warnings in
  t.pending_warnings <- [];
  warnings

let limit_warnings t =
  let warnings = limit_warnings_exec t in
  if warnings <> [] then
    Journal.append t.wal t ~flush:false (fun w -> Persist.Codec.W.u8 w tag_warnings);
  warnings

(* ------------------------------------------------------------------ *)
(* Crash and WAL recovery                                              *)
(* ------------------------------------------------------------------ *)

let power_cut t = Journal.power_cut t.wal

(* Every branch re-runs the live call's mutation body (an [_exec]
   function, never the logging wrapper), so replay appends nothing.
   A replayed delivery folds a stale-epoch receive by its logged
   amend-transport verdict ([replay_amend]) and never re-seals or
   re-sends the amended reply. *)
let replay_record t tag r =
  if tag = tag_charge then begin
    let sender = Persist.Codec.R.int r in
    let dest_isp = Persist.Codec.R.int r in
    ignore (charge_exec t ~sender ~dest_isp)
  end
  else if tag = tag_deliver then begin
    let sender_epoch = Persist.Codec.R.opt Persist.Codec.R.int r in
    let from_isp = Persist.Codec.R.int r in
    let rcpt = Persist.Codec.R.int r in
    let amended = Persist.Codec.R.bool r in
    ignore
      (deliver_exec t ~replay_amend:(Some amended) ~sender_epoch ~from_isp ~rcpt)
  end
  else if tag = tag_refund then begin
    let sender = Persist.Codec.R.int r in
    let dest_isp = Persist.Codec.R.int r in
    refund_exec t ~sender ~dest_isp
  end
  else if tag = tag_topup then begin
    let user = Persist.Codec.R.int r in
    let amount = Persist.Codec.R.int r in
    match Ledger.user_buy t.ledger ~user ~amount with
    | Ok () -> ()
    | Error msg -> failwith ("topup replay rejected: " ^ msg)
  end
  else if tag = tag_pool then ignore (pool_action_exec t)
  else if tag = tag_bank_msg then
    ignore (apply_bank_payload t (Wire.decode_bin r))
  else if tag = tag_thaw then ignore (thaw_exec t)
  else if tag = tag_end_of_day then end_of_day_exec t
  else if tag = tag_warnings then ignore (limit_warnings_exec t)
  else Journal.unknown_tag r tag

(* The restart steps, before the journal's post-recovery checkpoint
   (which therefore holds them): count the crash and lift the §4.4
   freeze, which is volatile — the bank's request retransmission
   restarts it. *)
let restart t =
  t.crashes <- t.crashes + 1;
  t.cansend <- true

let recover_wal t =
  Journal.recover t.wal t ~name:"Isp.recover_wal" ~tracer:t.tracer ~set_tracer
    ~replay:replay_record ~after:restart

let total_epennies t = Ledger.total_epennies t.ledger

let stats_cheat_minted t = t.cheat_minted
let stats_crashes t = t.crashes
