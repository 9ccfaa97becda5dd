let log_src = Logs.Src.create "smtp.mta" ~doc:"Simulated mail transfer agents"

module Log = (val Logs.src_log log_src)

type decision = Deliver | Intercept | Discard of string

type stats = {
  submitted : int;
  sessions : int;
  delivered : int;
  intercepted : int;
  discarded : int;
  bounced : int;
  bytes_sent : int;
}

type t = {
  net : network;
  host : Dns.host;
  hostname : Message.host;  (* validated once, at [create] *)
  domains : string list;
  listener : Server.listener;  (* one instance per MTA, shared by sessions *)
  mailboxes : Mailbox.t;
  mutable outbound_stamp : Envelope.t -> Message.t -> Message.t;
  mutable inbound_filter : sender:Address.t -> rcpt:Address.t -> Message.t -> decision;
  mutable on_delivered : rcpt:Address.t -> Message.t -> unit;
  mutable on_bounce : Envelope.t -> Message.t -> string -> unit;
  mutable down : bool;
  mutable retain_mail : bool;
  mutable submitted : int;
  mutable sessions : int;
  mutable delivered : int;
  mutable intercepted : int;
  mutable discarded : int;
  mutable bounced : int;
  mutable bytes_sent : int;
  mutable next_message_id : int;
}

and network = {
  engine : Sim.Engine.t;
  registry : Dns.t;
  latency : Sim.Rng.t -> float;
  local_latency : float;
  rng : Sim.Rng.t;
  mutable hosts : t list;  (* reversed; host id = index at creation *)
  mutable host_arr : t array;  (* hosts by id, for O(1) routing *)
  mutable host_count : int;
  mutable link_fault :
    (src:int -> dst:int -> [ `Deliver | `Delayed of float | `Lost ]) option;
  mutable retrying : int;  (* envelopes currently parked in backoff *)
  mutable serving : serving option;
}

(* The serving-layer plug (lib/serve installs one): remote deliveries
   are handed to [serve_admit] instead of running [transmit] after a
   one-way latency draw.  [serve_capacity] is the side-effect-free
   probe [submit_checked] uses to refuse a whole submission before any
   counter moves. *)
and serving = {
  serve_admit :
    src:t -> dest_host:Dns.host -> Envelope.t -> Message.t ->
    [ `Queued | `Refused ];
  serve_capacity : src:Dns.host -> dest_host:Dns.host -> bool;
}

(* Three session attempts, 60 * 2^attempt seconds between them (at
   most 120 s, far below the cap). *)
let max_attempts = 3
let retry_backoff = Sim.Retry.policy ~initial:60. ~factor:2. ~cap:3600.

let default_latency rng = 0.010 +. Sim.Dist.exponential rng ~rate:20.

let network ?(latency = default_latency) ?(local_latency = 0.001) engine =
  {
    engine;
    registry = Dns.create ();
    latency;
    local_latency;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    hosts = [];
    host_arr = [||];
    host_count = 0;
    link_fault = None;
    retrying = 0;
    serving = None;
  }

let set_link_fault net f = net.link_fault <- f
let set_serving net s = net.serving <- s

let link_verdict net ~src ~dst =
  match net.link_fault with
  | None -> `Deliver
  | Some verdict -> verdict ~src ~dst

let retry_queue_length net = net.retrying

let engine net = net.engine

let create net ~hostname ~domains =
  let hostname =
    match Message.host hostname with
    | Ok h -> h
    | Error e -> invalid_arg ("Mta.create: " ^ e)
  in
  List.iter
    (fun d ->
      match Dns.lookup net.registry ~domain:d with
      | Some _ -> invalid_arg (Printf.sprintf "Mta.create: domain %s already registered" d)
      | None -> ())
    domains;
  let domains = List.map String.lowercase_ascii domains in
  (* Same acceptance rule as [Server.default_policy ~local_domains] but
     matching on interned domain IDs instead of comparing strings. *)
  let domain_ids = List.map Address.intern_domain domains in
  let policy =
    {
      Server.accept_recipient =
        (fun a ->
          if List.mem (Address.domain_id a) domain_ids then Ok ()
          else Error (Address.to_string a));
      max_recipients = 100;
      max_message_bytes = 1024 * 1024;
    }
  in
  let t =
    {
      net;
      host = net.host_count;
      hostname;
      domains;
      listener =
        Server.listener ~hostname:(Message.host_to_string hostname) ~policy;
      mailboxes = Mailbox.create ();
      outbound_stamp = (fun _ m -> m);
      inbound_filter = (fun ~sender:_ ~rcpt:_ _ -> Deliver);
      on_delivered = (fun ~rcpt:_ _ -> ());
      on_bounce = (fun _ _ _ -> ());
      down = false;
      retain_mail = true;
      submitted = 0;
      sessions = 0;
      delivered = 0;
      intercepted = 0;
      discarded = 0;
      bounced = 0;
      bytes_sent = 0;
      next_message_id = 0;
    }
  in
  net.host_count <- net.host_count + 1;
  net.hosts <- t :: net.hosts;
  net.host_arr <- Array.of_list (List.rev net.hosts);
  List.iter (fun d -> Dns.register net.registry ~domain:d t.host) domains;
  t

let host t = t.host
let hostname t = Message.host_to_string t.hostname
let domains t = t.domains
let mailboxes t = t.mailboxes

let set_outbound_stamp t f = t.outbound_stamp <- f
let set_inbound_filter t f = t.inbound_filter <- f
let set_on_delivered t f = t.on_delivered <- f
let set_on_bounce t f = t.on_bounce <- f
let set_down t b = t.down <- b
let is_down t = t.down
let set_retain_mail t b = t.retain_mail <- b

let find_host net id =
  if id < 0 || id >= Array.length net.host_arr then raise Not_found;
  net.host_arr.(id)

(* Accept every mailbox within our domains; actual per-message policy
   runs in the inbound filter after DATA completes, like real ISPs
   filtering after acceptance. *)
let session_policy t = Server.listener_policy t.listener

let rec accept_all t ~now ~sender stamped = function
  | [] -> ()
  | rcpt :: rest ->
      (match t.inbound_filter ~sender ~rcpt stamped with
      | Deliver ->
          if t.retain_mail then Mailbox.deliver t.mailboxes rcpt ~time:now stamped;
          t.delivered <- t.delivered + 1;
          t.on_delivered ~rcpt stamped
      | Intercept -> t.intercepted <- t.intercepted + 1
      | Discard _ -> t.discarded <- t.discarded + 1);
      accept_all t ~now ~sender stamped rest

(* Deliver a message that has fully arrived at this (receiving) MTA. *)
let accept_locally t envelope message =
  let now = Sim.Engine.now t.net.engine in
  let sender = Envelope.sender envelope in
  let stamped =
    Message.stamp_received message ~from:sender ~by:t.hostname ~at:now
  in
  accept_all t ~now ~sender stamped (Envelope.recipients envelope)

let bounce t envelope message reason =
  Log.warn (fun m ->
      m "%s: bouncing %a: %s" (hostname t) Envelope.pp envelope reason);
  t.bounced <- t.bounced + List.length (Envelope.recipients envelope);
  t.on_bounce envelope message reason

(* Run one SMTP session from [t] to [dest] for [envelope]/[message];
   returns [Ok ()] or a retryable/permanent failure.  Every message
   round-trips the wire exactly, so [Server.deliver_direct] computes the
   dialogue's outcome structurally; the line-by-line RFC 821 exchange
   runs on the serving path ([Serve.Session]) and is the reference the
   fast path is property-tested against. *)
let run_session t dest envelope message =
  t.sessions <- t.sessions + 1;
  if dest.down then Error (`Transient "host down (421)")
  else
    match Server.deliver_direct ~policy:(session_policy dest) envelope message with
    | `Delivered (env, msg, _rejected) ->
        t.bytes_sent <- t.bytes_sent + Message.size_bytes message;
        accept_locally dest env msg;
        Ok ()
    | `All_rejected rejected ->
        Error
          (`Permanent
             (Client.failure_to_string (Client.All_recipients_rejected rejected)))
    | `Size_exceeded ->
        (* The dialogue's 552 at end of DATA, as the client reports it. *)
        let reply =
          Reply.v 552 "Requested mail action aborted: exceeded storage allocation"
        in
        Error
          (`Permanent
             (Client.failure_to_string (Client.Protocol_error { at = "."; reply })))

(* The retry/backoff/bounce decision, shared verbatim between the
   direct delivery path below and the serving layer's dispatcher
   ([resubmit] is the continuation that re-runs the next attempt —
   [transmit] here, queue re-admission in [Serve.Dispatch]).
   Exhausting the attempts bounces the message, which (via
   [on_bounce]) is what refunds the postage. *)
let retry_transient t ~dest_host envelope message ~attempt ~reason ~resubmit =
  if attempt + 1 >= max_attempts then begin
    bounce t envelope message reason;
    `Bounced
  end
  else begin
    Log.debug (fun m ->
        m "%s: transient failure to host %d (attempt %d): %s" (hostname t)
          dest_host (attempt + 1) reason);
    let backoff = Sim.Retry.delay retry_backoff ~attempt in
    t.net.retrying <- t.net.retrying + 1;
    ignore
      (Sim.Engine.schedule_after t.net.engine ~delay:backoff (fun () ->
           t.net.retrying <- t.net.retrying - 1;
           resubmit ~attempt:(attempt + 1)));
    `Parked backoff
  end

(* [transmit] asks the link-fault layer (if any) for a verdict before
   opening the session: [`Lost] burns a retry like any 4xx tempfail,
   [`Delayed d] re-runs the same attempt after [d] without consuming
   one.  Transient failures park the envelope in the backoff queue of
   [retry_transient]. *)
let rec transmit t ~dest_host envelope message ~attempt =
  match t.net.link_fault with
  | None -> attempt_session t ~dest_host envelope message ~attempt
  | Some verdict -> (
      match verdict ~src:t.host ~dst:dest_host with
      | `Deliver -> attempt_session t ~dest_host envelope message ~attempt
      | `Delayed d ->
          ignore
            (Sim.Engine.schedule_after t.net.engine ~delay:d (fun () ->
                 attempt_session t ~dest_host envelope message ~attempt))
      | `Lost ->
          park t ~dest_host envelope message ~attempt
            "connection lost (link fault)")

and attempt_session t ~dest_host envelope message ~attempt =
  let dest = find_host t.net dest_host in
  match run_session t dest envelope message with
  | Ok () -> ()
  | Error (`Permanent reason) -> bounce t envelope message reason
  | Error (`Transient reason) ->
      park t ~dest_host envelope message ~attempt reason

and park t ~dest_host envelope message ~attempt reason =
  ignore
    (retry_transient t ~dest_host envelope message ~attempt ~reason
       ~resubmit:(fun ~attempt -> transmit t ~dest_host envelope message ~attempt))

let route t sub_envelope ~domain ~dest message =
  match dest with
  | None -> bounce t sub_envelope message (Printf.sprintf "no MX for %s" domain)
  | Some dest_host when dest_host = t.host ->
      ignore
        (Sim.Engine.schedule_after t.net.engine ~delay:t.net.local_latency
           (fun () -> accept_locally t sub_envelope message))
  | Some dest_host -> (
      match t.net.serving with
      | Some s -> (
          (* Admission happens at submission time so that a full
             queue can push back on the submitter; the session layer
             models all transmission latency itself. *)
          match s.serve_admit ~src:t ~dest_host sub_envelope message with
          | `Queued -> ()
          | `Refused ->
              bounce t sub_envelope message
                "421 service not available (admission queue full)")
      | None ->
          let delay = t.net.latency t.net.rng in
          ignore
            (Sim.Engine.schedule_after t.net.engine ~delay (fun () ->
                 transmit t ~dest_host sub_envelope message ~attempt:0)))

let submit t envelope message =
  t.submitted <- t.submitted + 1;
  (* Stamp a Message-Id on first submission, like any real MTA. *)
  let message =
    match Message.message_id message with
    | Some _ -> message
    | None ->
        t.next_message_id <- t.next_message_id + 1;
        Message.stamp_message_id message
          (Message.message_id_of_seq t.next_message_id t.hostname)
  in
  let message = t.outbound_stamp envelope message in
  match Envelope.recipients envelope with
  | [ rcpt ] ->
      (* Dominant case: one recipient means one destination domain, so
         skip the group-by-domain allocation and resolve by interned
         domain ID. *)
      route t envelope ~domain:(Address.domain rcpt)
        ~dest:(Dns.lookup_addr t.net.registry rcpt)
        message
  | _ ->
      let by_domain =
        List.map
          (fun d -> (d, Envelope.recipients_in envelope ~domain:d))
          (Envelope.domains envelope)
      in
      List.iter
        (fun (domain, recipients) ->
          let sub_envelope =
            Envelope.v ~sender:(Envelope.sender envelope) ~recipients
          in
          route t sub_envelope ~domain
            ~dest:(Dns.lookup t.net.registry ~domain)
            message)
        by_domain

(* Like [submit], but when a serving layer is installed refuse the
   whole submission — before any counter, stamp or queue moves — if any
   remote destination's admission queue lacks room.  The caller
   (e.g. [Zmail.World]) can then undo its side of the transaction
   (refund the postage) and let the generator re-offer later, which is
   how backpressure propagates instead of teleporting load into
   bounces. *)
let submit_checked t envelope message =
  let has_capacity =
    match t.net.serving with
    | None -> true
    | Some s -> (
        let dest_ok dest =
          match dest with
          | Some dest_host when dest_host <> t.host ->
              s.serve_capacity ~src:t.host ~dest_host
          | Some _ | None -> true (* local, or no MX: bounces, not backpressure *)
        in
        match Envelope.recipients envelope with
        | [ rcpt ] -> dest_ok (Dns.lookup_addr t.net.registry rcpt)
        | _ ->
            List.for_all
              (fun domain -> dest_ok (Dns.lookup t.net.registry ~domain))
              (Envelope.domains envelope))
  in
  if has_capacity then begin
    submit t envelope message;
    `Submitted
  end
  else `Backpressure

(* ---- Serving-layer SPI (see lib/serve) ---------------------------- *)

let open_server t = Server.accept t.listener
let accept_from_remote t envelope message = accept_locally t envelope message
let count_session t = t.sessions <- t.sessions + 1
let note_bytes_sent t n = t.bytes_sent <- t.bytes_sent + n

let stats t =
  {
    submitted = t.submitted;
    sessions = t.sessions;
    delivered = t.delivered;
    intercepted = t.intercepted;
    discarded = t.discarded;
    bounced = t.bounced;
    bytes_sent = t.bytes_sent;
  }
