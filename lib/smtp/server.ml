type policy = {
  accept_recipient : Address.t -> (unit, string) result;
  max_recipients : int;
  max_message_bytes : int;
}

let default_policy ~local_domains =
  let local_domains = List.map String.lowercase_ascii local_domains in
  {
    accept_recipient =
      (fun a ->
        if List.mem (Address.domain a) local_domains then Ok ()
        else Error (Address.to_string a));
    max_recipients = 100;
    max_message_bytes = 1024 * 1024;
  }

(* Session phases, in RFC 821 order. *)
type phase =
  | Start  (* awaiting HELO *)
  | Idle  (* greeted, no transaction open *)
  | Have_sender of Address.t
  | Collecting of {
      sender : Address.t;
      recipients_rev : Address.t list;  (* accepted, newest first *)
      count : int;  (* [List.length recipients_rev] *)
    }
  | In_data of {
      sender : Address.t;
      recipients : Address.t list;  (* in RCPT order *)
      reader : Message.reader;
      mutable size : int;  (* the sum of (line length + 1) over the lines so far *)
    }
  | Quit_received

(* The 220 and 221 lines name the host, so they are rendered once per
   listener rather than once per session. *)
type listener = {
  hostname : string;
  policy : policy;
  ready : Reply.t;
  closing : Reply.t;
}

let listener ~hostname ~policy =
  {
    hostname;
    policy;
    ready = Reply.service_ready ~hostname;
    closing = Reply.closing ~hostname;
  }

let listener_policy l = l.policy

type t = {
  host : listener;
  mutable phase : phase;
  mutable inbox : (Envelope.t * Message.t) list;  (* reversed *)
}

let accept host = { host; phase = Start; inbox = [] }
let create ~hostname ~policy = accept (listener ~hostname ~policy)

let greeting t = t.host.ready

let closed t = t.phase = Quit_received

let reset_transaction t = t.phase <- Idle

(* The 552 verdict at the dot depends only on [size]: once it passes
   the cap, later lines are counted but no longer kept. *)
let finish_data t sender recipients reader size =
  t.phase <- Idle;
  if size > t.host.policy.max_message_bytes then
    Reply.v 552 "Requested mail action aborted: exceeded storage allocation"
  else begin
    let message =
      match Message.finish reader with
      | Ok message -> message
      | Error _ ->
          (* RFC 821 delivers even messy content; preserve it as an
             opaque body so nothing is silently lost.  A forged or
             repeated stamp lands here too, so it never becomes a
             stamp. *)
          Message.make_exn ~from:sender ~to_:recipients ~body:(Message.text reader) ()
    in
    t.inbox <- (Envelope.v ~sender ~recipients, message) :: t.inbox;
    Reply.completed
  end

let greets t peer = Reply.completed_text (t.host.hostname ^ " greets " ^ peer)

let on_command t command =
  match (t.phase, (command : Command.t)) with
  | Quit_received, _ -> Reply.service_unavailable
  | _, Command.Noop -> Reply.completed
  | _, Command.Quit ->
      t.phase <- Quit_received;
      t.host.closing
  | _, Command.Rset ->
      (match t.phase with Start -> () | _ -> reset_transaction t);
      Reply.completed
  | Start, Command.Helo peer ->
      t.phase <- Idle;
      greets t peer
  | Start, (Command.Mail_from _ | Command.Rcpt_to _ | Command.Data | Command.Vrfy _)
    ->
      Reply.bad_sequence
  | (Idle | Have_sender _ | Collecting _), Command.Helo peer ->
      (* Re-HELO aborts any transaction in progress. *)
      t.phase <- Idle;
      greets t peer
  | Idle, Command.Mail_from sender ->
      t.phase <- Have_sender sender;
      Reply.completed
  | Idle, (Command.Rcpt_to _ | Command.Data) -> Reply.bad_sequence
  | Have_sender _, Command.Mail_from _ -> Reply.bad_sequence
  | Have_sender sender, Command.Rcpt_to rcpt -> (
      match t.host.policy.accept_recipient rcpt with
      | Ok () ->
          t.phase <- Collecting { sender; recipients_rev = [ rcpt ]; count = 1 };
          Reply.completed
      | Error who -> Reply.mailbox_unavailable who)
  | Have_sender _, Command.Data -> Reply.bad_sequence
  | Collecting _, Command.Mail_from _ -> Reply.bad_sequence
  | Collecting { sender; recipients_rev; count }, Command.Rcpt_to rcpt ->
      if count >= t.host.policy.max_recipients then Reply.transaction_failed "too many recipients"
      else if List.exists (Address.equal rcpt) recipients_rev then
        (* Idempotent accept: RFC allows repeating a recipient. *)
        Reply.completed
      else (
        match t.host.policy.accept_recipient rcpt with
        | Ok () ->
            t.phase <-
              Collecting { sender; recipients_rev = rcpt :: recipients_rev; count = count + 1 };
            Reply.completed
        | Error who -> Reply.mailbox_unavailable who)
  | Collecting { sender; recipients_rev; _ }, Command.Data ->
      t.phase <-
        In_data
          { sender; recipients = List.rev recipients_rev; reader = Message.reader (); size = 0 };
      Reply.start_mail_input
  | _, Command.Vrfy _ ->
      (* We confirm nothing: the classic anti-harvesting stance. *)
      Reply.completed_text "Cannot VRFY user, but will accept message"
  | In_data _, _ ->
      (* Commands are not interpreted during DATA; handled in on_line. *)
      assert false

let on_line t line =
  match t.phase with
  | In_data ({ sender; recipients; reader; size } as d) ->
      if String.equal line "." then Some (finish_data t sender recipients reader size)
      else begin
        (* RFC 821 §4.5.2: a leading '.' was doubled by the sender. *)
        let pos =
          if String.length line >= 2 && line.[0] = '.' && line.[1] = '.' then 1 else 0
        in
        let size = size + String.length line - pos + 1 in
        d.size <- size;
        if size <= t.host.policy.max_message_bytes then Message.add_line reader line ~pos;
        None
      end
  | Start | Idle | Have_sender _ | Collecting _ | Quit_received -> (
      match Command.of_line line with
      | Ok command -> Some (on_command t command)
      | Error _ -> Some Reply.syntax_error)

let received t = List.rev t.inbox

let take_received t =
  let all = List.rev t.inbox in
  t.inbox <- [];
  all

(* ---- Structural fast path ------------------------------------------- *)

(* Mirrors the RCPT/DATA decision sequence of the session state
   machine in [on_command]/[finish_data], recipient by recipient in
   envelope order, without rendering the message to lines and
   re-parsing it.  Every message re-parses to itself, so the message
   the dialogue would deliver is [message].  A qcheck property in
   test_smtp pins this equivalence against the real dialogue. *)
let rec deliver_from ~policy envelope message accepted_rev rejected_rev = function
  | rcpt :: rest -> (
      match accepted_rev with
      | _ :: _ when List.length accepted_rev >= policy.max_recipients ->
          deliver_from ~policy envelope message accepted_rev
            ((rcpt, Reply.transaction_failed "too many recipients") :: rejected_rev)
            rest
      | _ :: _ when List.exists (Address.equal rcpt) accepted_rev ->
          (* Idempotent repeat: accepted on the wire, not re-added. *)
          deliver_from ~policy envelope message accepted_rev rejected_rev rest
      | _ -> (
          match policy.accept_recipient rcpt with
          | Ok () -> deliver_from ~policy envelope message (rcpt :: accepted_rev) rejected_rev rest
          | Error who ->
              deliver_from ~policy envelope message accepted_rev
                ((rcpt, Reply.mailbox_unavailable who) :: rejected_rev)
                rest))
  | [] -> (
      let rejected = List.rev rejected_rev in
      match accepted_rev with
      | [] -> `All_rejected rejected
      | _ :: _ when Message.size_bytes message + 1 > policy.max_message_bytes ->
          (* The dialogue's size check in [finish_data] sums (line + 1)
             over the rendered lines, which is [Message.size_bytes] plus
             one. *)
          `Size_exceeded
      | _ :: _ ->
          let envelope' =
            (* Nothing rejected means every recipient was accepted in
               order ([Envelope.v] already forbids duplicates), so the
               rebuilt envelope would equal the original — reuse it. *)
            match rejected with
            | [] -> envelope
            | _ :: _ ->
                Envelope.v ~sender:(Envelope.sender envelope) ~recipients:(List.rev accepted_rev)
          in
          `Delivered (envelope', message, rejected))

let deliver_direct ~policy envelope message =
  deliver_from ~policy envelope message [] [] (Envelope.recipients envelope)
