let log_src = Logs.Src.create "zmail.world" ~doc:"Assembled Zmail simulation"

module Log = (val Logs.src_log log_src)

(* One-way latency of the ISP<->bank accounting link, in seconds. *)
let bank_link_latency = 0.1

(* A round facing partition-severed ISPs runs without them iff at least
   this share of the compliant population is reachable. *)
let audit_quorum = 0.5

type unpaid_policy =
  | Unpaid_deliver
  | Unpaid_discard
  | Unpaid_filter of { score : string list -> float; threshold : float }

type config = {
  n_isps : int;
  users_per_isp : int;
  compliant : bool array;
  seed : int;
  shard_tag : string;
  audit_period : float option;
  freeze_duration : float;
  pool_check_period : float;
  unpaid_policy : unpaid_policy;
  auto_ack : bool;
  auto_topup : Epenny.amount option;
  customize_isp : int -> Isp.config -> Isp.config;
  bank_fault : Sim.Fault.plan;
  mesh_default : Sim.Fault.plan;
  mesh_links : ((int * int) * Sim.Fault.plan) list;
  partitions : Sim.Fault.Mesh.partition list;
  bank_wire : (int * Adversary.Bank_wire.wire_behavior) list;
  retain_mail : bool;
  disk : Sim.Disk.plan option;
      (** Give every kernel (and the bank) a simulated log device with
          this fault plan, so billing state is kept in write-ahead logs
          and the world can crash.  [None] (the default) logs nothing
          and pays no per-operation overhead, but {!crash_isp} and
          {!crash_bank} refuse it. *)
  wal_group : int;
      (** Group-commit window for lazy ISP WAL records (see
          {!Isp.create}).  Ignored without [disk]. *)
  serving : Serve.Config.t option;
      (** Route remote SMTP delivery through the serving path
          ([Serve.Dispatch]): bounded admission queues, concurrent
          sessions, per-class latency SLOs.  [None] (the default)
          keeps the direct fast path. *)
  tracer : Obs.Trace.t option;
      (** Record protocol events here (and enable the engine monitor).
          [None]: the world keeps a private, initially-inert tracer
          that only wakes up if checkers subscribe to it. *)
  banks : Federation.config;
      (** The member banks: each ISP's home and each member's
          behaviour.  Default: one honest bank. *)
}

let default_config ~n_isps ~users_per_isp =
  {
    n_isps;
    users_per_isp;
    compliant = Array.make n_isps true;
    seed = 0;
    shard_tag = "";
    audit_period = None;
    freeze_duration = 10. *. Sim.Engine.minute;
    pool_check_period = Sim.Engine.hour;
    unpaid_policy = Unpaid_deliver;
    auto_ack = true;
    auto_topup = Some 50;
    customize_isp = (fun _ c -> c);
    bank_fault = Sim.Fault.reliable;
    mesh_default = Sim.Fault.reliable;
    mesh_links = [];
    partitions = [];
    bank_wire = [];
    retain_mail = true;
    disk = None;
    wal_group = 8;
    serving = None;
    tracer = None;
    banks = Federation.default_config ~n_banks:1 ~n_isps;
  }

type counters = {
  mutable ham_delivered : int;
  mutable spam_delivered : int;
  mutable unpaid_discarded : int;
  mutable blocked_balance : int;
  mutable blocked_limit : int;
  mutable deferred_sends : int;
  mutable backpressured_sends : int;
  mutable acks_generated : int;
  mutable limit_warnings : int;
}

(* Everything the unreliable bank link and the crash machinery did,
   beyond the per-fault counters kept by [Sim.Fault.Mesh] itself. *)
type link_stats = {
  retransmits : Sim.Stats.Counter.t;
  bank_rejects : Sim.Stats.Counter.t;
  lost_isp_down : Sim.Stats.Counter.t;
  sends_failed_down : Sim.Stats.Counter.t;
  crashes : Sim.Stats.Counter.t;
  recoveries : Sim.Stats.Counter.t;
  bounce_refunds : Sim.Stats.Counter.t;
  audits_deferred : Sim.Stats.Counter.t;
  bank_crashes : Sim.Stats.Counter.t;
  bank_recoveries : Sim.Stats.Counter.t;
  lost_bank_down : Sim.Stats.Counter.t;
  wal_fallbacks : Sim.Stats.Counter.t;
}

(* What a send carries until its charge is known: the message is built
   once charged, and a send deferred by a snapshot freeze is queued as
   its draft. *)
type draft =
  | Compose of {
      subject : Smtp.Message.subject_line;
      fields : Smtp.Message.field list;
      body : string;
    }
  | Ack of string  (* the list id a subscriber acknowledges *)
  | Built of Smtp.Message.t  (* a list expansion, built by [Listserv.distribute] *)

type deferred_send = { at : float; user : int; to_addr : Smtp.Address.t; draft : draft }

type t = {
  cfg : config;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  mtas : Smtp.Mta.t array;
  kernels : Isp.t option array;
  fed : Federation.t;
  (* Per-delivery routing: ISP index by interned domain ID (see
     Smtp.Address).  IDs beyond the array (domains interned by other
     worlds or tests after this one was built) and [-1] slots are
     "outside world".  This replaces the string-keyed hashtable that
     every submit/inbound/bounce used to probe per message. *)
  isp_of_did : int array;
  domains : string array;  (* per-ISP domain string, precomputed *)
  domain_ids : int array;  (* per-ISP interned domain ID *)
  locals : string array;  (* "u0".."uN-1", shared across ISPs *)
  lists : (Smtp.Address.t, Listserv.t) Hashtbl.t;
  deferred : deferred_send Queue.t array;  (* per sending ISP *)
  stats : counters;
  deferral : Sim.Stats.Summary.t;
  mutable audits : (float * Bank.audit_result) list;  (* reversed *)
  mutable profiles : Econ.User_model.profile array option;
  initial : Epenny.amount;
  initial_balance_of : int array;  (* per ISP, after customization *)
  mesh : Sim.Fault.Mesh.t;
      (* per-link faults + partitions; member bank b = node n_isps + b *)
  mutable adversaries : (int * Adversary.t) list;  (* by ISP, registration order *)
  bank_taps : (int * Adversary.Bank_wire.t) list;  (* ISP->bank wire adversaries *)
  up : bool array;  (* false while an ISP is crashed *)
  crash_gen : int array;  (* bumped per crash; invalidates stale timers *)
  bank_up : bool array;  (* per member: false while it is crashed *)
  link : link_stats;
  tracer : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  honest : bool array;  (* compliant AND not configured to cheat *)
  serve : Serve.Dispatch.t option;  (* serving path, when configured *)
}

let engine t = t.engine
let config t = t.cfg
let federation t = t.fed
let bank t = Federation.bank t.fed 0
let tracer t = t.tracer
let metrics t = t.metrics
let mta t i = t.mtas.(i)
let counters t = t.stats
let mesh t = t.mesh
let adversaries t = t.adversaries
let bank_wire_taps t = t.bank_taps
let link_stats t = t.link
let isp_up t i = t.up.(i)
let bank_up ?(bank = 0) t = t.bank_up.(bank)
let all_banks_up t = Array.for_all Fun.id t.bank_up
let serve t = t.serve
let deferral_delay t = t.deferral
let initial_epennies t = t.initial
let audit_results_timed t = List.rev t.audits

let audit_results t = List.map snd (audit_results_timed t)

let isp t i =
  match t.kernels.(i) with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "World.isp: ISP %d is not compliant" i)

(* With the default empty [shard_tag] this is byte-identical to the
   historical "isp%d.example"; a Parworld shard passes its group tag so
   ISP domains stay globally unique across shard worlds (the intern
   table is process-global — identical strings would alias cross-shard
   mail into the destination's own ISPs). *)
let domain_of_isp ?(shard_tag = "") i =
  if shard_tag = "" then Printf.sprintf "isp%d.example" i
  else Printf.sprintf "isp%d.%s.example" i shard_tag

let address t ~isp:i ~user =
  if i < 0 || i >= t.cfg.n_isps || user < 0 || user >= t.cfg.users_per_isp then
    invalid_arg "World.address: index out of range";
  Smtp.Address.unsafe_of_parts ~local:t.locals.(user) ~domain:t.domains.(i)
    ~domain_id:t.domain_ids.(i)

(* ISP index of an address's domain, [-1] for the outside world. *)
let isp_of_addr t addr =
  let did = Smtp.Address.domain_id addr in
  if did < Array.length t.isp_of_did then t.isp_of_did.(did) else -1

(* The user [local.[k..]] names: plain decimal digits below [users],
   or -1.  (Deliberately stricter than [int_of_string_opt], which would
   also admit "u0x1f" or "u1_0" — no generated address uses those
   forms.)  A value past [users] stops the scan, so it cannot wrap. *)
let rec user_digits local k u ~users =
  if k = String.length local then u
  else
    let c = String.unsafe_get local k in
    if c >= '0' && c <= '9' then
      let u = (u * 10) + (Char.code c - 48) in
      if u < users then user_digits local (k + 1) u ~users else -1
    else -1

(* The user index of a world address, -1 outside the world.  Locals
   are "u" followed by the index, read without a substring. *)
let user_of_addr t addr =
  if isp_of_addr t addr < 0 then -1
  else
    let local = Smtp.Address.local addr in
    if String.length local >= 2 && local.[0] = 'u' then
      user_digits local 1 0 ~users:t.cfg.users_per_isp
    else -1

let locate t addr =
  let u = user_of_addr t addr in
  if u < 0 then None else Some (isp_of_addr t addr, u)

let drain_warnings t i =
  match t.kernels.(i) with
  | None -> ()
  | Some k ->
      let warned = Isp.limit_warnings k in
      t.stats.limit_warnings <- t.stats.limit_warnings + List.length warned

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Every world event is off the per-message path, so the payload is
   built unguarded; [emit] drops it when no tracer is attached. *)
let wev t ?(actor = -1) payload = Obs.Trace.emit t.tracer ~actor payload

let fold_kernels t f =
  Array.fold_left
    (fun acc k -> match k with Some k -> acc + f k | None -> acc)
    0 t.kernels

(* Emit an [obs/checkpoint] event carrying independently-measured
   system totals; the online invariant checkers compare the models
   they derived from the event stream against these at every
   checkpoint.  [quiescent] asserts no paid mail is in flight. *)
let check_invariants ?(quiescent = false) t =
  if Obs.Trace.active t.tracer then
    Obs.Trace.emit t.tracer ~actor:(-1)
      (Obs_checkpoint
         {
           total = fold_kernels t Isp.total_epennies;
           outstanding = Federation.total_outstanding t.fed;
           minted = fold_kernels t Isp.stats_cheat_minted;
           quiescent;
         })

let attach_invariants ?honest t =
  let honest = match honest with Some h -> h | None -> t.honest in
  let zero_sum = Obs.Invariant.attach_zero_sum t.tracer ~initial:t.initial in
  let antisymmetry = Obs.Invariant.attach_antisymmetry t.tracer ~honest in
  let exactly_once = Obs.Invariant.attach_exactly_once t.tracer in
  let cycle_residue = Obs.Invariant.attach_cycle_residue t.tracer ~honest in
  (* A background heartbeat so conservation is compared while the run
     is in progress, not only at audit rounds and the final
     checkpoint.  Background events never keep the run alive. *)
  ignore
    (Sim.Engine.every t.engine ~period:Sim.Engine.hour (fun () ->
         check_invariants t));
  [ zero_sum; antisymmetry; exactly_once; cycle_residue ]

(* ------------------------------------------------------------------ *)
(* Send path                                                           *)
(* ------------------------------------------------------------------ *)

type send_result =
  | Submitted of [ `Paid | `Free ]
  | Deferred_snapshot
  | Failed_down
  | Backpressured
  | Rejected of Ledger.block

(* The simulator's ground-truth label, a constant field validated
   once.  Lookups pass the same name string, which [header] matches
   without comparing bytes. *)
let sim_label = "X-Sim-Label"
let ham_label = Smtp.Message.field_exn sim_label "ham"
let spam_label = Smtp.Message.field_exn sim_label "spam"
let label ~spam = if spam then spam_label else ham_label
let ham_fields = [ ham_label ]
let spam_fields = [ spam_label ]

(* The simulator's own subjects, validated once. *)
let no_subject = Smtp.Message.subject_line_exn "(no subject)"
let note_subject = Smtp.Message.subject_line_exn "note"
let reply_subject = Smtp.Message.subject_line_exn "re: note"
let ack_subject = Smtp.Message.subject_line_exn "ack"

(* A paid message carries one e-penny. *)
let one_epenny = Some 1

(* The message a send's draft becomes once its charge is known (a
   paid one with its payment and epoch stamps), built in one record.
   [rcpts] is the one-recipient list the envelope shares. *)
let message_of_draft t ~from ~rcpts ?payment ?epoch = function
  | Compose { subject; fields; body } ->
      Smtp.Message.build ~from ~to_:rcpts ~subject ~date:(Sim.Engine.now t.engine) ~fields
        ?payment ?epoch ~body ()
  | Ack list_id ->
      Smtp.Message.build ~from ~to_:rcpts ~subject:ack_subject
        ~date:(Sim.Engine.now t.engine) ~fields:[] ~ack:list_id ?payment ?epoch ~body:"" ()
  | Built message -> (
      match payment with
      | Some epennies -> Smtp.Message.mark_payment ?epoch message ~epennies
      | None -> message)

(* Hand the message to ISP [i]'s MTA.  [submit_checked] probes the
   serving layer's admission capacity before any side effect, so a
   421 here leaves no trace in the MTA and the caller can unwind
   cleanly (refund below).  Without a serving layer it is exactly
   [submit]. *)
let submit t i ~from_addr ~to_addr ?payment ?epoch draft =
  let rcpts = [ to_addr ] in
  let message = message_of_draft t ~from:from_addr ~rcpts ?payment ?epoch draft in
  Smtp.Mta.submit_checked t.mtas.(i)
    (Smtp.Envelope.v ~sender:from_addr ~recipients:rcpts)
    message

let backpressured t i =
  t.stats.backpressured_sends <- t.stats.backpressured_sends + 1;
  wev t ~actor:i World_backpressured;
  Backpressured

let submit_free t i ~from_addr ~to_addr draft =
  match submit t i ~from_addr ~to_addr draft with
  | `Submitted -> Submitted `Free
  | `Backpressure -> backpressured t i

(* [dest_isp] is [-1] for the outside world. *)
let charge kernel ~user ~dest_isp =
  if dest_isp >= 0 then Isp.charge_send kernel ~sender:user ~dest_isp
  else if Isp.frozen kernel then Isp.Deferred
  else Isp.Sent_free

(* §1.2: the user buffers fluctuations by buying e-pennies from the
   ISP pool, then the send is retried once. *)
let charge_with_topup t kernel ~user ~dest_isp =
  match charge kernel ~user ~dest_isp with
  | Isp.Blocked Ledger.Insufficient_balance as blocked -> (
      match t.cfg.auto_topup with
      | Some amount -> (
          match Isp.user_topup kernel ~user ~amount with
          | Ok () -> charge kernel ~user ~dest_isp
          | Error _ -> blocked)
      | None -> blocked)
  | outcome -> outcome

(* The message is built after the charge lands, so a paid one is
   stamped as it is built.  Everything a send needs is passed down:
   no closure is built per send, and a deferred send is queued as its
   draft. *)
let submit_message t i ~user ~from_addr ~to_addr draft =
  if not t.up.(i) then begin
    (* The user's own ISP is down: the submission MSA is unreachable,
       the message never enters the system (no charge, no queue). *)
    Sim.Stats.Counter.incr t.link.sends_failed_down;
    wev t ~actor:i World_refused_down;
    Failed_down
  end
  else
    match t.kernels.(i) with
    | None ->
        (* Non-compliant sender: plain SMTP, no accounting. *)
        submit_free t i ~from_addr ~to_addr draft
    | Some kernel -> (
        let dest_isp = isp_of_addr t to_addr in
        let outcome = charge_with_topup t kernel ~user ~dest_isp in
        drain_warnings t i;
        match outcome with
        | Isp.Sent_paid -> (
            (* Paid mail carries the sender's audit epoch so a receiver
               whose snapshot lags (crash recovery) can book it into
               the matching billing period. *)
            match
              submit t i ~from_addr ~to_addr ?payment:one_epenny ~epoch:(Isp.audit_seq kernel)
                draft
            with
            | `Submitted -> Submitted `Paid
            | `Backpressure ->
                (* The serving layer refused admission after the charge
                   landed; the message never entered the system, so the
                   charge is unwound like a bounce refund — both ledger
                   and credit-record legs. *)
                Isp.refund_send kernel ~sender:user ~dest_isp;
                backpressured t i)
        | Isp.Sent_free -> submit_free t i ~from_addr ~to_addr draft
        | Isp.Deferred ->
            t.stats.deferred_sends <- t.stats.deferred_sends + 1;
            wev t ~actor:i World_deferred;
            Queue.push { at = Sim.Engine.now t.engine; user; to_addr; draft } t.deferred.(i);
            Deferred_snapshot
        | Isp.Blocked block ->
            (match block with
            | Ledger.Insufficient_balance ->
                t.stats.blocked_balance <- t.stats.blocked_balance + 1
            | Ledger.Daily_limit_reached ->
                t.stats.blocked_limit <- t.stats.blocked_limit + 1);
            Rejected block)

(* [send_email] with [subject] already checked and [in_reply_to] a
   built field: the simulator's own sends come here directly, with
   nothing left to check. *)
let send_checked t ~from:(i, u) ~to_:(j, v) ~subject ~spam ?in_reply_to ~body () =
  let to_addr = address t ~isp:j ~user:v in
  let from_addr = address t ~isp:i ~user:u in
  let fields =
    match in_reply_to with
    | Some field -> [ field; label ~spam ]
    | None -> if spam then spam_fields else ham_fields
  in
  submit_message t i ~user:u ~from_addr ~to_addr (Compose { subject; fields; body })

let send_email t ~from ~to_ ?subject ?(spam = false) ?in_reply_to
    ?(body = "hello") () =
  (* Caller-supplied header values are checked before anything is
     charged: the message is built after the charge lands. *)
  let invalid e = invalid_arg ("World.send_email: " ^ e) in
  let subject =
    match subject with
    | None -> no_subject
    | Some s -> (
        match Smtp.Message.subject_line s with
        | Ok s -> s
        | Error e -> invalid e)
  in
  let in_reply_to =
    match in_reply_to with
    | None -> None
    | Some id -> (
        match Smtp.Message.field "In-Reply-To" id with
        | Ok field -> Some field
        | Error e -> invalid e)
  in
  send_checked t ~from ~to_ ~subject ~spam ?in_reply_to ~body ()

(* ------------------------------------------------------------------ *)
(* Bank links                                                          *)
(* ------------------------------------------------------------------ *)

(* All ISP<->bank traffic crosses the mesh as datagrams
   ([Sim.Fault.Mesh.route]: drop / duplicate / delay / corrupt /
   outages / partitions) and then the configured link latency.
   Reliability on top is at-least-once: [resend_until_settled] resends
   a message until its [still] predicate reports the exchange settled,
   under [bank_retry]'s capped exponential backoff; idempotence comes
   from the nonce scheme (the bank's reply cache, the kernel's
   outstanding-request checks), so duplicates — injected or
   retransmitted — are absorbed. *)

(* A corrupted bank->ISP message: the signature no longer matches, so
   [Wire.verify_from_bank] rejects it at the kernel (never raises). *)
let corrupt_signed (s : Wire.signed) =
  { s with Wire.signature = s.Wire.signature + 1 }

(* The member banks hang off the same physical mesh as the ISPs, as
   nodes [n_isps …]: a scheduled partition that severs an ISP's group
   from its home bank's silences its audit traffic exactly as it
   silences its mail, and [bank_fault] is nothing but the plan of the
   ISP<->home-bank links. *)
let home t i = Federation.home_of t.fed ~isp:i
let home_bank t i = Federation.bank t.fed (home t i)
let bank_node t i = t.cfg.n_isps + home t i

(* Bank exchanges resend after 5 s, doubling up to 900 s. *)
let bank_retry = Sim.Retry.policy ~initial:5. ~factor:2. ~cap:900.

let resend_until_settled t policy ~still send =
  Sim.Retry.until_settled t.engine policy ~still send ~on_resend:(fun timeout ->
      Sim.Stats.Counter.incr t.link.retransmits;
      wev t (World_retransmit { timeout }))

let audit_complete t result =
  Log.info (fun m ->
      m "t=%.0f audit %d complete: %d violations, suspects [%s]"
        (Sim.Engine.now t.engine) result.Bank.seq
        (List.length result.Bank.violations)
        (String.concat "," (List.map string_of_int result.Bank.suspects)));
  t.audits <- (Sim.Engine.now t.engine, result) :: t.audits;
  (* An audit round just closed every book: a natural instant to
     cross-check the money supply. *)
  check_invariants t

(* The ISP->bank hop, from the top: a configured [Bank_wire] tap sees
   the envelope first (it owns the wire, so it acts before the mesh
   gets a say).  A forged or replayed copy travels the same
   degraded path as the original — injection does not bypass loss. *)
let rec to_bank t ~kind i sealed =
  match List.assoc_opt i t.bank_taps with
  | None -> bank_link t i sealed
  | Some tap -> (
      match Adversary.Bank_wire.on_sealed tap ~kind sealed with
      | Adversary.Bank_wire.Pass -> bank_link t i sealed
      | Adversary.Bank_wire.Drop ->
          wev t ~actor:i
            (World_bankwire_drop { kind = Adversary.Bank_wire.kind_name kind })
      | Adversary.Bank_wire.Delay d ->
          wev t ~actor:i (World_bankwire_delay { delay = d });
          ignore
            (Sim.Engine.schedule_after t.engine ~delay:d (fun () ->
                 bank_link t i sealed))
      | Adversary.Bank_wire.Inject extra ->
          wev t ~actor:i
            (World_bankwire_inject { kind = Adversary.Bank_wire.kind_name kind });
          bank_link t i extra;
          bank_link t i sealed)

and bank_link t i sealed =
  Sim.Fault.Mesh.route t.mesh ~src:i ~dst:(bank_node t i)
    ~corrupt:Toycrypto.Seal.flip_bit
    (fun sealed ->
      ignore
        (Sim.Engine.schedule_after t.engine ~delay:bank_link_latency
           (fun () ->
             if not t.bank_up.(home t i) then
               (* A crashed bank accepts no connections; the sender's
                  retry loop re-drives the exchange after recovery. *)
               Sim.Stats.Counter.incr t.link.lost_bank_down
             else
             (* A crashed member cannot take part in closing the round;
                its recovery closes it instead. *)
             match
               Federation.on_isp_message ~ready:(all_banks_up t) t.fed
                 ~from_isp:i sealed
             with
             | Bank.Reply signed -> send_to_isp t i signed
             | Bank.Audit_complete result -> audit_complete t result
             | Bank.Audit_progress -> ()
             | Bank.Rejected reason ->
                 (* Corruption, forgery or an out-of-protocol duplicate:
                    counted, never raised.  Retransmission recovers the
                    exchange if it mattered. *)
                 Log.debug (fun m ->
                     m "t=%.0f bank rejected message from isp %d: %s"
                       (Sim.Engine.now t.engine) i
                       (Bank.reject_to_string reason));
                 Sim.Stats.Counter.incr t.link.bank_rejects)))
    sealed

and send_to_isp t i signed =
  if not t.bank_up.(home t i) then Sim.Stats.Counter.incr t.link.lost_bank_down
  else
  Sim.Fault.Mesh.route t.mesh ~src:(bank_node t i) ~dst:i ~corrupt:corrupt_signed
    (fun signed ->
      ignore
        (Sim.Engine.schedule_after t.engine ~delay:bank_link_latency
           (fun () ->
             if t.up.(i) then bank_message_to_isp t i signed
             else Sim.Stats.Counter.incr t.link.lost_isp_down)))
    signed

and bank_message_to_isp t i signed =
  match t.kernels.(i) with
  | None -> ()
  | Some kernel -> (
      match Isp.on_bank_message kernel signed with
      | Isp.No_reaction -> ()
      | Isp.Start_snapshot_timer ->
          Log.debug (fun m ->
              m "t=%.0f isp %d frozen for snapshot" (Sim.Engine.now t.engine) i);
          let gen = t.crash_gen.(i) in
          ignore
            (Sim.Engine.schedule_after t.engine ~delay:t.cfg.freeze_duration
               (fun () ->
                 (* A crash during the freeze invalidates this timer:
                    the kernel recovered thawed, and the bank's
                    audit-request retransmission restarts the freeze. *)
                 if t.crash_gen.(i) = gen && Isp.frozen kernel then begin
                   let seq =
                     match Isp.frozen_for kernel with
                     | Some s -> s
                     | None -> assert false (* frozen implies a round *)
                   in
                   let reply = Isp.thaw kernel in
                   Log.debug (fun m ->
                       m "t=%.0f isp %d thawed, reporting" (Sim.Engine.now t.engine) i);
                   let bank = home_bank t i in
                   let still () = Bank.awaits_reply bank ~seq ~isp:i in
                   resend_until_settled t bank_retry ~still (fun () ->
                       if t.up.(i) then
                         to_bank t ~kind:Adversary.Bank_wire.Audit_reply_msg i
                           reply);
                   flush_deferred t i
                 end)))

and flush_deferred t i =
  let queue = t.deferred.(i) in
  let now = Sim.Engine.now t.engine in
  while not (Queue.is_empty queue) do
    let { at; user; to_addr; draft } = Queue.pop queue in
    Sim.Stats.Summary.add t.deferral (now -. at);
    ignore
      (submit_message t i ~user ~from_addr:(address t ~isp:i ~user) ~to_addr draft)
  done

(* Evaluate §4.3 pool thresholds for one ISP and, if a buy/sell came
   out, send it with retransmission until the matching reply lands
   (the pending nonce is the acknowledgment state). *)
let pool_tick t i kernel =
  let buy_before = Isp.pending_buy_nonce kernel in
  let sell_before = Isp.pending_sell_nonce kernel in
  match Isp.pool_action kernel with
  | None -> ()
  | Some sealed ->
      (* Typed nonce compares: [=] on an [int64 option] is the
         polymorphic C primitive, and [still] runs on every retry. *)
      let same_nonce nonce = function
        | Some n -> Int64.equal n nonce
        | None -> false
      in
      let still, kind =
        match (Isp.pending_buy_nonce kernel, Isp.pending_sell_nonce kernel) with
        | Some nonce, _ when not (same_nonce nonce buy_before) ->
            ( (fun () -> same_nonce nonce (Isp.pending_buy_nonce kernel)),
              Adversary.Bank_wire.Buy_msg )
        | _, Some nonce when not (same_nonce nonce sell_before) ->
            ( (fun () -> same_nonce nonce (Isp.pending_sell_nonce kernel)),
              Adversary.Bank_wire.Sell_msg )
        | _ -> ((fun () -> false), Adversary.Bank_wire.Buy_msg)
      in
      resend_until_settled t bank_retry ~still (fun () ->
          if t.up.(i) then to_bank t ~kind i sealed)

(* Start a §4.4 audit round, retransmitting each request until the
   ISP's reply is recorded.  The first retry waits out a full freeze:
   a request that did arrive is only ever acknowledged by the audit
   reply sent at thaw, so probing earlier proves nothing.

   Every member bank opens the round for the ISPs homed at it, and the
   round closes once, when the last member has collected its replies.

   Partition tolerance: ISPs whose group a partition window currently
   severs from their home bank's cannot answer no matter how often the
   request is resent, so the round either runs without them (the banks
   carry their peers' claims forward for reconciliation at heal) or
   is deferred entirely, per [audit_quorum].  Only
   partition-severed ISPs are excluded — a merely {e crashed} ISP
   keeps its request retransmitted until recovery, preserving the E16
   behavior. *)
let start_audit_round t =
  if not (all_banks_up t) then begin
    (* Every member takes part, so one crashed bank defers the round:
       the next periodic tick (or manual trigger) after recovery
       starts it. *)
    Sim.Stats.Counter.incr t.link.audits_deferred;
    wev t World_audit_deferred_bank_down
  end
  else
  let severed =
    if Sim.Fault.Mesh.trivial t.mesh then []
    else
      List.filter
        (fun i ->
          t.cfg.compliant.(i)
          && Sim.Fault.Mesh.severed t.mesh ~a:i ~b:(bank_node t i))
        (List.init t.cfg.n_isps (fun i -> i))
  in
  let compliant_count =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.cfg.compliant
  in
  let reachable = compliant_count - List.length severed in
  let proceed =
    severed = []
    || reachable > 0
       && float_of_int reachable >= audit_quorum *. float_of_int compliant_count
  in
  if not proceed then begin
    Sim.Stats.Counter.incr t.link.audits_deferred;
    wev t (World_audit_deferred { unreachable = List.length severed })
  end
  else begin
    let seq = Bank.audit_seq (bank t) in
    let requests = Federation.open_round ~except:severed t.fed in
    (* The cap never cuts below the first, freeze-long wait. *)
    let first = t.cfg.freeze_duration +. bank_retry.Sim.Retry.initial in
    let policy =
      Sim.Retry.policy ~initial:first ~factor:bank_retry.Sim.Retry.factor
        ~cap:(Float.max bank_retry.Sim.Retry.cap first)
    in
    List.iter
      (fun (i, signed) ->
        let bank = home_bank t i in
        let still () = Bank.awaits_reply bank ~seq ~isp:i in
        resend_until_settled t policy ~still (fun () -> send_to_isp t i signed))
      requests
  end

(* ------------------------------------------------------------------ *)
(* Crash and recovery                                                  *)
(* ------------------------------------------------------------------ *)

(* Every crash is a power cut of the victim's log device at the crash
   instant and a WAL replay ([recover_wal]) at restart.  Flushed bytes
   are never damaged, so an [Error] is outside the fault model: it is
   logged, counted and traced here, and the run goes on from whatever
   state the failed recovery left.  [actor] is the ISP; none means the
   bank. *)
let recovery_failed t ?actor why =
  Log.warn (fun m ->
      m "t=%.0f %s WAL recovery failed: %s" (Sim.Engine.now t.engine)
        (match actor with Some i -> "isp " ^ string_of_int i | None -> "bank")
        why);
  Sim.Stats.Counter.incr t.link.wal_fallbacks;
  wev t ?actor (World_recover_failed { why })

let check_crash t fn ~downtime =
  if Option.is_none t.cfg.disk then
    invalid_arg (fn ^ ": the world has no disk, and recovery replays a WAL");
  (* NaN fails both comparisons; an infinite downtime would schedule
     the recovery at t = inf and hang [run_until_quiet]. *)
  if not (downtime > 0. && downtime < Float.infinity) then
    invalid_arg (fn ^ ": downtime must be positive and finite")

let crash_isp t ~isp:i ~downtime =
  if i < 0 || i >= t.cfg.n_isps then invalid_arg "World.crash_isp: index out of range";
  check_crash t "World.crash_isp" ~downtime;
  match t.kernels.(i) with
  | None -> invalid_arg "World.crash_isp: non-compliant ISPs have no kernel to crash"
  | Some kernel ->
      if not t.up.(i) then invalid_arg "World.crash_isp: ISP is already down";
      Log.info (fun m ->
          m "t=%.0f isp %d CRASH (down for %.0fs)" (Sim.Engine.now t.engine) i downtime);
      t.up.(i) <- false;
      t.crash_gen.(i) <- t.crash_gen.(i) + 1;
      Sim.Stats.Counter.incr t.link.crashes;
      wev t ~actor:i (World_crash { downtime });
      (* The power cut happens at the crash instant: the unflushed WAL
         tail dies now (modulo the device's torn/rot plan), not at
         recovery time. *)
      Isp.power_cut kernel;
      (* The MTA answers 421 while down; peers retry with backoff and
         eventually bounce (refunded via the bounce hook). *)
      Smtp.Mta.set_down t.mtas.(i) true;
      ignore
        (Sim.Engine.schedule_after t.engine ~delay:downtime (fun () ->
             Log.info (fun m ->
                 m "t=%.0f isp %d recovered" (Sim.Engine.now t.engine) i);
             t.up.(i) <- true;
             Smtp.Mta.set_down t.mtas.(i) false;
             (* Restart from durable state (ledger, credit, pending
                requests); the freeze flag is volatile and clears. *)
             (match Isp.recover_wal kernel with
             | Ok () -> ()
             | Error why -> recovery_failed t ~actor:i why);
             Sim.Stats.Counter.incr t.link.recoveries;
             wev t ~actor:i World_recover;
             (* Recovery handshake: before reopening for business the
                ISP fetches pending protocol state from the bank.  If
                an audit round is still waiting on us, the re-issued
                request freezes the kernel right now — otherwise the
                first post-recovery sends would land one audit epoch
                behind the already-thawed peers.  Modeled synchronous:
                a fresh connection the recovering ISP initiates, not
                regular (faulty) link traffic; the request retransmit
                chain still covers it regardless.  A crashed bank
                cannot answer the handshake; its own recovery re-issues
                the requests instead. *)
             (if t.bank_up.(home t i) then
                match Bank.resend_audit_request (home_bank t i) ~isp:i with
                | Some signed -> bank_message_to_isp t i signed
                | None -> ());
             if not (Isp.frozen kernel) then flush_deferred t i;
             (* Any buy/sell outstanding across the crash is
                re-driven from the recovered request records; the
                bank's reply cache absorbs duplicates. *)
             pool_tick t i kernel))

(* Crash one member bank.  While down, every ISP-origin message to it
   and every send from it is lost (counted in [lost_bank_down]); the
   at-least-once retry loops on both sides re-drive the open exchanges
   after recovery, and the replayed reply cache keeps the re-driven
   buys/sells exactly-once.  The power cut can tear at most the final
   record (bank records flush at append).  A round whose last member
   collected while this one was down closes at its recovery. *)
let crash_bank ?(bank = 0) t ~downtime =
  if bank < 0 || bank >= Federation.n_banks t.fed then
    invalid_arg "World.crash_bank: bank out of range";
  check_crash t "World.crash_bank" ~downtime;
  if not t.bank_up.(bank) then invalid_arg "World.crash_bank: bank is already down";
  Log.info (fun m ->
      m "t=%.0f bank %d CRASH (down for %.0fs)" (Sim.Engine.now t.engine) bank
        downtime);
  let member = Federation.bank t.fed bank in
  t.bank_up.(bank) <- false;
  Sim.Stats.Counter.incr t.link.bank_crashes;
  wev t (World_bank_crash { downtime });
  Bank.power_cut member;
  ignore
    (Sim.Engine.schedule_after t.engine ~delay:downtime (fun () ->
         Log.info (fun m ->
             m "t=%.0f bank %d recovered" (Sim.Engine.now t.engine) bank);
         t.bank_up.(bank) <- true;
         (match Bank.recover_wal member with
         | Ok () -> ()
         | Error why -> recovery_failed t why);
         Sim.Stats.Counter.incr t.link.bank_recoveries;
         wev t World_bank_recover;
         (* Re-drive the open audit round: the recovered audit state
            knows who still owes a reply; re-issue their requests now
            rather than waiting out the request retry loops. *)
         for i = 0 to t.cfg.n_isps - 1 do
           if t.up.(i) && home t i = bank then
             match Bank.resend_audit_request member ~isp:i with
             | Some signed -> send_to_isp t i signed
             | None -> ()
         done;
         if all_banks_up t then
           match Federation.close_round t.fed with
           | Some result -> audit_complete t result
           | None -> ()))

(* ------------------------------------------------------------------ *)
(* Inbound processing                                                  *)
(* ------------------------------------------------------------------ *)

let maybe_generate_ack t ~isp_index ~rcpt_user message =
  if t.cfg.auto_ack then
    match (Smtp.Message.header message "List-Id", Smtp.Message.from message) with
    | Some list_id, Some distributor ->
        t.stats.acks_generated <- t.stats.acks_generated + 1;
        ignore
          (submit_message t isp_index ~user:rcpt_user
             ~from_addr:(address t ~isp:isp_index ~user:rcpt_user)
             ~to_addr:distributor (Ack list_id))
    | (Some _ | None), _ -> ()

(* A delivery's payment settles for mail from a compliant ISP
   ([from_isp >= 0]) to a world user ([rcpt_user >= 0]). *)
let settle kernel ~from_isp ~rcpt_user message =
  if from_isp >= 0 && rcpt_user >= 0 then
    Isp.accept_delivery_stamped kernel ~sender_epoch:(Smtp.Message.epoch message) ~from_isp
      ~rcpt:rcpt_user
  else `Unpaid

let deliver t message =
  (match Smtp.Message.header message sim_label with
  | Some "spam" -> t.stats.spam_delivered <- t.stats.spam_delivered + 1
  | Some _ | None -> t.stats.ham_delivered <- t.stats.ham_delivered + 1);
  Smtp.Mta.Deliver

let inbound_filter t ~isp_index kernel ~sender ~rcpt message =
  let from_isp =
    let i = isp_of_addr t sender in
    if i >= 0 && t.cfg.compliant.(i) then i else -1
  in
  let rcpt_user = user_of_addr t rcpt in
  (* Mailing-list acknowledgments are protocol traffic: settle the
     payment, inform the distributor's list state, never deliver. *)
  match Smtp.Message.ack_of message with
  | Some list_id when Hashtbl.mem t.lists rcpt ->
      ignore (settle kernel ~from_isp ~rcpt_user message);
      ignore (Listserv.on_ack (Hashtbl.find t.lists rcpt) ~from:sender ~list_id);
      Smtp.Mta.Intercept
  | Some _ | None -> (
      match settle kernel ~from_isp ~rcpt_user message with
      | `Paid ->
          let decision = deliver t message in
          (match Smtp.Message.header message "List-Id" with
          | Some _ -> maybe_generate_ack t ~isp_index ~rcpt_user message
          | None -> ());
          decision
      | `Unpaid -> (
          match t.cfg.unpaid_policy with
          | Unpaid_deliver -> deliver t message
          | Unpaid_discard ->
              t.stats.unpaid_discarded <- t.stats.unpaid_discarded + 1;
              Smtp.Mta.Discard "unpaid mail from non-compliant ISP"
          | Unpaid_filter { score; threshold } ->
              let text =
                Option.value ~default:"" (Smtp.Message.subject message)
                ^ " " ^ Smtp.Message.body message
              in
              let tokens =
                String.split_on_char ' '
                  (String.lowercase_ascii (String.map (function '\n' -> ' ' | c -> c) text))
                |> List.filter (fun s -> s <> "")
              in
              if score tokens >= threshold then begin
                t.stats.unpaid_discarded <- t.stats.unpaid_discarded + 1;
                Smtp.Mta.Discard "unpaid mail failed the spam filter"
              end
              else deliver t message))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create cfg =
  if Array.length cfg.compliant <> cfg.n_isps then
    invalid_arg "World.create: compliance map size mismatch";
  if cfg.n_isps <= 0 || cfg.users_per_isp <= 0 then
    invalid_arg "World.create: need at least one ISP and one user";
  let engine = Sim.Engine.create ~seed:cfg.seed () in
  (* The tracer never draws randomness and is clocked off the engine,
     so tracing cannot perturb a seeded run: the trace is a pure
     function of the seed. *)
  let tracer =
    match cfg.tracer with
    | Some tr -> tr
    | None -> Obs.Trace.create ~capacity:0 ()
  in
  Obs.Trace.set_clock tracer (fun () -> Sim.Engine.now engine);
  let metrics = Obs.Metrics.create () in
  let honest = Array.make cfg.n_isps false in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let net = Smtp.Mta.network engine in
  (* Storage devices, when configured, each draw their fault decisions
     (torn-tail cut points, rot flips) from their own root-seeded
     stream — like the fault, mesh, bank-wire and serving models — so
     attaching disks never perturbs workload randomness.  Device
     n_isps + b is member bank b's. *)
  let disk_for n =
    match cfg.disk with
    | None -> None
    | Some plan ->
        Some (Sim.Disk.create ~plan (Sim.Rng.stream_n ~seed:cfg.seed ~tag:0xd15c n))
  in
  let fed =
    Federation.create
      ~disk:(fun b -> disk_for (cfg.n_isps + b))
      ~compliant:cfg.compliant rng cfg.banks
  in

  let mtas =
    Array.init cfg.n_isps (fun i ->
        Smtp.Mta.create net
          ~hostname:
            (Printf.sprintf "mx.%s" (domain_of_isp ~shard_tag:cfg.shard_tag i))
          ~domains:[ domain_of_isp ~shard_tag:cfg.shard_tag i ])
  in
  let initial_balance_of = Array.make cfg.n_isps 0 in
  let kernels =
    Array.init cfg.n_isps (fun i ->
        if cfg.compliant.(i) then begin
          let base =
            Isp.default_config ~index:i ~n_isps:cfg.n_isps
              ~n_users:cfg.users_per_isp ~compliant:cfg.compliant
              ~bank_public:
                (Federation.public_key fed ~bank:(Federation.home_of fed ~isp:i))
          in
          let final = cfg.customize_isp i base in
          initial_balance_of.(i) <- final.Isp.initial_balance;
          honest.(i) <- final.Isp.cheat = Isp.Honest;
          Some (Isp.create ?disk:(disk_for i) ~wal_group:cfg.wal_group rng final)
        end
        else None)
  in
  if not cfg.retain_mail then
    Array.iter (fun m -> Smtp.Mta.set_retain_mail m false) mtas;
  let domains =
    Array.init cfg.n_isps (domain_of_isp ~shard_tag:cfg.shard_tag)
  in
  let domain_ids = Array.map Smtp.Address.intern_domain domains in
  (* The intern table is process-global and append-only, so sizing the
     routing array to the current intern count covers every domain this
     world can ever see as "inside". *)
  let isp_of_did = Array.make (Smtp.Address.interned_domains ()) (-1) in
  Array.iteri (fun i did -> isp_of_did.(did) <- i) domain_ids;
  let locals = Array.init cfg.users_per_isp (Printf.sprintf "u%d") in
  let initial =
    Array.fold_left
      (fun acc k -> match k with Some k -> acc + Isp.total_epennies k | None -> acc)
      0 kernels
  in
  (* Bank-wire taps: one per listed ISP, each on its own root-seeded
     stream (like the fault and mesh models) so enabling a tap never
     perturbs workload randomness.  A tapped ISP stays *honest* — the
     adversary owns the wire, not the books, so its reports remain
     trustworthy and any conviction of it is a false positive. *)
  let bank_taps =
    List.map
      (fun (i, behavior) ->
        if i < 0 || i >= cfg.n_isps then
          invalid_arg "World.create: bank_wire tap index out of range";
        if not cfg.compliant.(i) then
          invalid_arg "World.create: bank_wire tap on a non-compliant ISP";
        ( i,
          Adversary.Bank_wire.create
            (Sim.Rng.stream_n ~seed:cfg.seed ~tag:0x8b1e5 i)
            behavior ))
      cfg.bank_wire
  in
  List.iteri
    (fun n (i, _) ->
      if List.exists (fun (j, _) -> i = j) (List.filteri (fun m _ -> m < n) bank_taps)
      then invalid_arg "World.create: duplicate bank_wire tap")
    bank_taps;
  (* The serving path, when configured, draws its per-phase RTTs from
     its own root-seeded stream (like the fault, mesh and bank-wire
     models) so enabling it never perturbs workload randomness. *)
  let serve =
    match cfg.serving with
    | None -> None
    | Some sc ->
        Some
          (Serve.Dispatch.attach ~config:sc
             ~rng:(Sim.Rng.stream ~seed:cfg.seed ~tag:0x5e17e)
             net)
  in
  let t =
    {
      cfg;
      engine;
      rng;
      mtas;
      kernels;
      fed;
      isp_of_did;
      domains;
      domain_ids;
      locals;
      lists = Hashtbl.create 8;
      deferred = Array.init cfg.n_isps (fun _ -> Queue.create ());
      stats =
        {
          ham_delivered = 0;
          spam_delivered = 0;
          unpaid_discarded = 0;
          blocked_balance = 0;
          blocked_limit = 0;
          deferred_sends = 0;
          backpressured_sends = 0;
          acks_generated = 0;
          limit_warnings = 0;
        };
      deferral = Obs.Metrics.summary metrics "world.deferral_delay";
      audits = [];
      profiles = None;
      initial;
      initial_balance_of;
      (* The mesh draws from its own root-seeded stream so that enabling
         faults does not perturb workload randomness: the same seed
         generates the same traffic under any plan.  Node n_isps + b is
         member bank b; [bank_fault] becomes the plan of both directions
         of every ISP<->home-bank link, and explicit [mesh_links]
         entries, listed after it, win. *)
      mesh =
        (let bank_links =
           if cfg.bank_fault = Sim.Fault.reliable then []
           else
             List.concat_map
               (fun i ->
                 let b = cfg.n_isps + Federation.home_of fed ~isp:i in
                 [ ((i, b), cfg.bank_fault); ((b, i), cfg.bank_fault) ])
               (List.init cfg.n_isps Fun.id)
         in
         Sim.Fault.Mesh.create ~default:cfg.mesh_default
           ~links:(bank_links @ cfg.mesh_links) ~partitions:cfg.partitions
           ~n_nodes:(cfg.n_isps + Federation.n_banks fed) engine
           (Sim.Rng.stream ~seed:cfg.seed ~tag:0x3a7e5));
      adversaries = [];
      bank_taps;
      up = Array.make cfg.n_isps true;
      crash_gen = Array.make cfg.n_isps 0;
      bank_up = Array.make (Federation.n_banks fed) true;
      link =
        {
          retransmits = Obs.Metrics.counter metrics "link.retransmits";
          bank_rejects = Obs.Metrics.counter metrics "link.bank_rejects";
          lost_isp_down = Obs.Metrics.counter metrics "link.lost_isp_down";
          sends_failed_down =
            Obs.Metrics.counter metrics "link.sends_failed_down";
          crashes = Obs.Metrics.counter metrics "link.crashes";
          recoveries = Obs.Metrics.counter metrics "link.recoveries";
          bounce_refunds = Obs.Metrics.counter metrics "link.bounce_refunds";
          audits_deferred = Obs.Metrics.counter metrics "link.audits_deferred";
          bank_crashes = Obs.Metrics.counter metrics "link.bank_crashes";
          bank_recoveries = Obs.Metrics.counter metrics "link.bank_recoveries";
          lost_bank_down = Obs.Metrics.counter metrics "link.lost_bank_down";
          wal_fallbacks = Obs.Metrics.counter metrics "link.wal_fallbacks";
        };
      tracer;
      metrics;
      honest;
      serve;
    }
  in
  (* Route every component's events into the shared tracer and gather
     the scattered counters under one registry. *)
  for b = 0 to Federation.n_banks fed - 1 do
    Bank.set_tracer (Federation.bank fed b) tracer
  done;
  Array.iter
    (function Some kernel -> Isp.set_tracer kernel tracer | None -> ())
    t.kernels;
  (* Amended audit replies (a receive stamped with an already-answered
     round arriving while the bank's round is still open) travel the
     same degraded ISP->bank path as the original reply, retransmitted
     until the round closes — after that the amendment is moot and the
     loop stops.  The hook returns whether the round was still open at
     fold time: on [false] the kernel reverts the fold and books the
     receive normally (an amendment to a closed round — the common
     case right after a partition heals — would silently erase the
     receive).  Wiring, like the tracer: [Isp.recover_wal] leaves it
     in place across crashes. *)
  Array.iteri
    (fun i -> function
      | Some kernel ->
          Isp.set_amend_hook kernel
            (Some
               (fun ~seq reply ->
                 let bank = home_bank t i in
                 let still () =
                   Bank.audit_in_progress bank && Bank.audit_seq bank = seq
                 in
                 still ()
                 && begin
                      resend_until_settled t bank_retry ~still (fun () ->
                          if t.up.(i) then
                            to_bank t ~kind:Adversary.Bank_wire.Audit_reply_msg
                              i reply);
                      true
                    end))
      | None -> ())
    t.kernels;
  List.iter
    (fun c ->
      Obs.Metrics.adopt_counter metrics
        ~name:("mesh." ^ Sim.Stats.Counter.name c)
        c)
    (Sim.Fault.Mesh.counters t.mesh);
  (* MTA sessions consult the mesh only when there is anything to
     consult: a trivial mesh keeps the delivery hot path oracle-free. *)
  if not (Sim.Fault.Mesh.trivial t.mesh) then
    Smtp.Mta.set_link_fault net
      (Some (fun ~src ~dst -> Sim.Fault.Mesh.attempt t.mesh ~src ~dst));
  Obs.Metrics.gauge metrics "engine.pending" (fun () ->
      float_of_int (Sim.Engine.pending engine));
  Obs.Metrics.gauge metrics "engine.live" (fun () ->
      float_of_int (Sim.Engine.live engine));
  Obs.Metrics.gauge metrics "engine.fired" (fun () ->
      float_of_int (Sim.Engine.events_fired engine));
  Obs.Metrics.gauge metrics "bank.outstanding" (fun () ->
      float_of_int (Federation.total_outstanding t.fed));
  Obs.Metrics.gauge metrics "world.total_epennies" (fun () ->
      float_of_int (fold_kernels t Isp.total_epennies));
  Obs.Metrics.gauge metrics "world.cheat_minted" (fun () ->
      float_of_int (fold_kernels t Isp.stats_cheat_minted));
  Obs.Metrics.gauge metrics "mail.ham_delivered" (fun () ->
      float_of_int t.stats.ham_delivered);
  Obs.Metrics.gauge metrics "mail.spam_delivered" (fun () ->
      float_of_int t.stats.spam_delivered);
  Obs.Metrics.gauge metrics "mail.unpaid_discarded" (fun () ->
      float_of_int t.stats.unpaid_discarded);
  Obs.Metrics.gauge metrics "mail.blocked_balance" (fun () ->
      float_of_int t.stats.blocked_balance);
  Obs.Metrics.gauge metrics "mail.blocked_limit" (fun () ->
      float_of_int t.stats.blocked_limit);
  Obs.Metrics.gauge metrics "mail.deferred_sends" (fun () ->
      float_of_int t.stats.deferred_sends);
  Obs.Metrics.gauge metrics "mail.backpressured_sends" (fun () ->
      float_of_int t.stats.backpressured_sends);
  Obs.Metrics.gauge metrics "mail.acks_generated" (fun () ->
      float_of_int t.stats.acks_generated);
  (match t.serve with
  | Some d -> Serve.Dispatch.register_metrics d metrics
  | None -> ());
  (* The engine monitor costs two monotonic-clock reads and a closure
     call per callback, so it is only armed when the caller explicitly
     asked for tracing. *)
  (match cfg.tracer with
  | Some _ ->
      let wall = Obs.Metrics.summary metrics "engine.callback_wall" in
      let depth = Obs.Metrics.series metrics "engine.queue_live" in
      Sim.Engine.set_monitor engine
        (Some
           (fun ~id:_ ~at ~wall:w ->
             Sim.Stats.Summary.add wall w;
             if Sim.Engine.events_fired engine mod 64 = 0 then
               Sim.Stats.Series.record depth ~time:at
                 (float_of_int (Sim.Engine.live engine))))
  | None -> ());
  Array.iteri
    (fun i kernel ->
      match kernel with
      | Some kernel ->
          Smtp.Mta.set_inbound_filter t.mtas.(i) (inbound_filter t ~isp_index:i kernel);
          (* A paid message abandoned by the MTA (receiver down through
             every retry, no MX, permanent 5xx) would destroy its
             e-penny; refund the sender instead, reversing both ledger
             and credit-record legs of the charge. *)
          Smtp.Mta.set_on_bounce t.mtas.(i) (fun envelope message _reason ->
              if Smtp.Message.payment message <> None then
                match locate t (Smtp.Envelope.sender envelope) with
                | Some (si, u) when si = i ->
                    List.iter
                      (fun rcpt ->
                        let dest_isp = isp_of_addr t rcpt in
                        Isp.refund_send kernel ~sender:u ~dest_isp;
                        Sim.Stats.Counter.incr t.link.bounce_refunds)
                      (Smtp.Envelope.recipients envelope)
                | Some _ | None -> ())
      | None -> ())
    kernels;
  (* Daily resets at midnight boundaries. *)
  ignore
    (Sim.Engine.every engine ~period:Sim.Engine.day (fun () ->
         Array.iteri
           (fun i kernel ->
             match kernel with
             | Some kernel when t.up.(i) ->
                 Isp.end_of_day kernel;
                 drain_warnings t i
             | Some _ | None -> ())
           t.kernels));
  (* §4.3 pool maintenance. *)
  ignore
    (Sim.Engine.every engine ~period:cfg.pool_check_period (fun () ->
         Array.iteri
           (fun i kernel ->
             match kernel with
             | Some kernel when t.up.(i) -> pool_tick t i kernel
             | Some _ | None -> ())
           t.kernels));
  (* Periodic audits. *)
  (match cfg.audit_period with
  | Some period ->
      ignore
        (Sim.Engine.every engine ~period (fun () ->
             if not (Bank.audit_in_progress (bank t)) then start_audit_round t))
  | None -> ());
  t

(* ------------------------------------------------------------------ *)
(* Mailing lists                                                       *)
(* ------------------------------------------------------------------ *)

let host_list t ~isp:i ~user ~list_id =
  let addr = address t ~isp:i ~user in
  if Hashtbl.mem t.lists addr then invalid_arg "World.host_list: address already hosts a list";
  let ls = Listserv.create ~list_id ~address:addr in
  Hashtbl.replace t.lists addr ls;
  ls

let post_to_list t ls ~body =
  let distributor = Listserv.address ls in
  match locate t distributor with
  | None -> invalid_arg "World.post_to_list: distributor is not a world user"
  | Some (i, user) ->
      let from_addr = address t ~isp:i ~user in
      let submitted = ref 0 in
      List.iter
        (fun (subscriber, message) ->
          match submit_message t i ~user ~from_addr ~to_addr:subscriber (Built message) with
          | Submitted _ | Deferred_snapshot -> incr submitted
          | Failed_down | Backpressured | Rejected _ -> ())
        (Listserv.distribute ls ~body ~date:(Sim.Engine.now t.engine) ());
      !submitted

(* ------------------------------------------------------------------ *)
(* Protocol operations                                                 *)
(* ------------------------------------------------------------------ *)

let trigger_audit t = start_audit_round t

(* A registered adversary tampers only with the credit row its ISP
   reports at thaw (see [Adversary]): money keeps moving honestly, so
   every behavior is balance-neutral and the only question is whether
   the audit catches the lie.  The ISP leaves the antisymmetry
   checker's honest mask — its *reports* are no longer trustworthy
   even though its books are. *)
let register_adversary t ~isp:i adv =
  if i < 0 || i >= t.cfg.n_isps then
    invalid_arg "World.register_adversary: index out of range";
  match t.kernels.(i) with
  | None ->
      invalid_arg "World.register_adversary: non-compliant ISPs have no kernel"
  | Some kernel ->
      if List.mem_assoc i t.adversaries then
        invalid_arg "World.register_adversary: ISP already has an adversary";
      Isp.set_audit_tamper kernel (Some (Adversary.tamper adv));
      t.honest.(i) <- false;
      t.adversaries <- t.adversaries @ [ (i, adv) ]

let run_days t days =
  Sim.Engine.run t.engine ~until:(Sim.Engine.now t.engine +. (days *. Sim.Engine.day))

let run_until_quiet t = Sim.Engine.run t.engine

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let global_index t (i, u) = (i * t.cfg.users_per_isp) + u
let of_global t g = (g / t.cfg.users_per_isp, g mod t.cfg.users_per_isp)

let profile_of t ~isp:i ~user =
  match t.profiles with
  | None -> None
  | Some profiles -> Some profiles.(global_index t (i, user))

let attach_user_traffic t ?(mix = Econ.User_model.standard_mix) () =
  let universe = t.cfg.n_isps * t.cfg.users_per_isp in
  let profiles = Econ.User_model.assign t.rng mix universe in
  t.profiles <- Some profiles;
  let rec schedule_user g =
    let profile = profiles.(g) in
    let delay = Econ.User_model.inter_send_delay t.rng profile in
    if delay < infinity then
      ignore
        (Sim.Engine.schedule_after t.engine ~delay (fun () ->
             let target = Econ.User_model.pick_correspondent t.rng ~self:g ~universe profile in
             ignore
               (send_checked t ~from:(of_global t g) ~to_:(of_global t target)
                  ~subject:note_subject ~spam:false ~body:"hello" ());
             schedule_user g))
  in
  for g = 0 to universe - 1 do
    schedule_user g
  done;
  (* Replies: each delivered ham message is answered with the
     recipient's profile probability, after a think-time delay.  The
     geometric decay (p < 1) keeps threads finite. *)
  Array.iteri
    (fun i mta ->
      Smtp.Mta.set_on_delivered mta (fun ~rcpt message ->
          (* Cheap header checks first: the [From] re-parse (a full
             address validation) only runs for ham, never for the far
             more numerous spam deliveries. *)
          if
            (match Smtp.Message.header message sim_label with
            | Some "ham" -> true
            | Some _ | None -> false)
            && Option.is_none (Smtp.Message.ack_of message)
          then
            let u = user_of_addr t rcpt in
            if u >= 0 then
              match Smtp.Message.from message with
              | None -> ()
              | Some original_sender -> (
                  match locate t original_sender with
                  | Some sender_loc ->
                      let profile = profiles.(global_index t (i, u)) in
                      if
                        Sim.Dist.bernoulli t.rng
                          profile.Econ.User_model.reply_probability
                      then begin
                        let think =
                          Sim.Dist.exponential t.rng ~rate:(1. /. 3600.)
                        in
                        let in_reply_to =
                          Option.map Smtp.Message.in_reply_to
                            (Smtp.Message.message_id message)
                        in
                        ignore
                          (Sim.Engine.schedule_after t.engine ~delay:think
                             (fun () ->
                               ignore
                                 (send_checked t ~from:(i, u) ~to_:sender_loc
                                    ~subject:reply_subject ~spam:false ?in_reply_to
                                    ~body:"hello" ())))
                      end
                  | None -> ())))
    t.mtas

let attach_bulk_sender t ~isp:i ~user ~per_day () =
  if per_day <= 0. then invalid_arg "World.attach_bulk_sender: rate must be positive";
  let universe = t.cfg.n_isps * t.cfg.users_per_isp in
  let self = global_index t (i, user) in
  let rec schedule_blast () =
    let delay = Sim.Dist.exponential t.rng ~rate:(per_day /. Sim.Engine.day) in
    ignore
      (Sim.Engine.schedule_after t.engine ~delay (fun () ->
           let target =
             let draw = Sim.Rng.int t.rng (universe - 1) in
             if draw >= self then draw + 1 else draw
           in
           ignore
             (send_email t ~from:(i, user) ~to_:(of_global t target)
                ~subject:"GREAT OFFER!!!" ~spam:true ());
           schedule_blast ()))
  in
  schedule_blast ()

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let total_epennies t =
  Array.fold_left
    (fun acc k -> match k with Some k -> acc + Isp.total_epennies k | None -> acc)
    0 t.kernels

let conservation_holds t =
  total_epennies t - t.initial = Federation.total_outstanding t.fed

let epenny_residue t =
  total_epennies t - t.initial - Federation.total_outstanding t.fed

let cheat_minted t =
  Array.fold_left
    (fun acc k ->
      match k with Some k -> acc + Isp.stats_cheat_minted k | None -> acc)
    0 t.kernels

let balance_drift t ~isp:i ~user =
  match t.kernels.(i) with
  | None -> 0
  | Some kernel ->
      Ledger.balance (Isp.ledger kernel) ~user - t.initial_balance_of.(i)

(* ------------------------------------------------------------------ *)
(* State capture                                                       *)
(* ------------------------------------------------------------------ *)

let encode_audit_result w (ar : Bank.audit_result) =
  let open Persist.Codec.W in
  int w ar.Bank.seq;
  list
    (fun w (v : Credit.Audit.violation) ->
      int w v.Credit.Audit.isp_a;
      int w v.Credit.Audit.isp_b;
      int w v.Credit.Audit.discrepancy)
    w ar.Bank.violations;
  list int w ar.Bank.suspects;
  list int w ar.Bank.convicted;
  list
    (fun w (r : Audit.Cycle.ring) ->
      list int w r.Audit.Cycle.members;
      int w r.Audit.Cycle.through;
      int w r.Audit.Cycle.residue)
    w ar.Bank.rings;
  list int w ar.Bank.cleared;
  list int w ar.Bank.absent

(* The world's own bookkeeping: mail counters, audit history, link
   counters, crash state and the deferred-send queues (times only —
   the queued drafts are re-created by replay like every other
   pending event). *)
let encode_world w t =
  let open Persist.Codec.W in
  int w t.stats.ham_delivered;
  int w t.stats.spam_delivered;
  int w t.stats.unpaid_discarded;
  int w t.stats.blocked_balance;
  int w t.stats.blocked_limit;
  int w t.stats.deferred_sends;
  int w t.stats.backpressured_sends;
  int w t.stats.acks_generated;
  int w t.stats.limit_warnings;
  Sim.Stats.Summary.encode_state w t.deferral;
  list
    (fun w (time, ar) ->
      float w time;
      encode_audit_result w ar)
    w t.audits;
  bool w (t.profiles <> None);
  int w (match t.profiles with Some p -> Array.length p | None -> 0);
  int w t.initial;
  int_array w t.initial_balance_of;
  array bool w t.up;
  int_array w t.crash_gen;
  List.iter
    (Sim.Stats.Counter.encode_state w)
    [ t.link.retransmits; t.link.bank_rejects; t.link.lost_isp_down;
      t.link.sends_failed_down; t.link.crashes; t.link.recoveries;
      t.link.bounce_refunds; t.link.audits_deferred ];
  bool w t.bank_up.(0);
  List.iter
    (Sim.Stats.Counter.encode_state w)
    [ t.link.bank_crashes; t.link.bank_recoveries; t.link.lost_bank_down;
      t.link.wal_fallbacks ];
  list
    (fun w (i, adv) ->
      int w i;
      Adversary.encode_state w adv)
    w t.adversaries;
  list
    (fun w (i, tap) ->
      int w i;
      Adversary.Bank_wire.encode_state w tap)
    w t.bank_taps;
  array
    (fun w q -> list (fun w d -> float w d.at) w (List.of_seq (Queue.to_seq q)))
    w t.deferred;
  int w (Hashtbl.length t.lists)

let capture t =
  if Federation.n_banks t.fed > 1 then
    invalid_arg "World.capture: a world on several banks cannot be captured";
  let sec name encode = (name, Persist.Codec.to_string encode ()) in
  [ sec "engine" (fun w () -> Sim.Engine.encode_state w t.engine);
    sec "rng" (fun w () -> Sim.Rng.encode_state w t.rng);
    sec "mesh" (fun w () -> Sim.Fault.Mesh.encode_state w t.mesh);
    sec "bank" (fun w () -> Bank.encode_state w (bank t)) ]
  @ (Array.to_list t.kernels
    |> List.mapi (fun i k -> (i, k))
    |> List.filter_map (fun (i, k) ->
           Option.map
             (fun kernel ->
               sec (Printf.sprintf "isp/%d" i) (fun w () ->
                   Isp.encode_state w kernel))
             k))
  @ [ sec "world" (fun w () -> encode_world w t) ]
  @ (match t.serve with
    | Some d -> [ sec "serve" (fun w () -> Serve.Dispatch.encode_state w d) ]
    | None -> [])
  @ [ sec "trace" (fun w () -> Obs.Trace.encode_state w t.tracer) ]
