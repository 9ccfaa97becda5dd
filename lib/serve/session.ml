let log_src = Logs.Src.create "serve.session" ~doc:"Concurrent SMTP sessions"

module Log = (val Logs.src_log log_src)

type outcome =
  [ `Delivered of int | `Transient of string | `Permanent of string ]

(* One session delivers one envelope over an explicit phase sequence —
   connect (220 banner), HELO, MAIL FROM, one RCPT TO per recipient,
   DATA, then the body and its terminating dot — with one round trip
   drawn per phase, so many sessions interleave on the engine while
   each occupies its dispatch slot for the whole dialogue.

   The dialogue itself is the real one: the same [Client.transport]
   driving the same [Server.t] state machine as the synchronous
   [Client.deliver], with [Client.send_data] putting the body on the
   wire for both.  Only the clock differs, which is the point.  The
   destination is probed for [is_down] at every phase boundary, so an
   MTA crash mid-session tempfails exactly where a TCP reset would.

   The session is one record: [phase] names what its next event runs,
   and every event runs the same [tick] closure, so a phase costs its
   engine event and its command line, not a closure per step. *)
type phase =
  | Greeting
  | Helo
  | Mail
  | Rcpt  (* the next RCPT TO, or DATA's transition once none remain *)
  | Data
  | Dot

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  rtt : Sim.Rng.t -> float;
  bytes_per_sec : float;
  src : Smtp.Mta.t;
  dest : Smtp.Mta.t;
  envelope : Smtp.Envelope.t;
  message : Smtp.Message.t;
  on_close : outcome -> unit;
  server : Smtp.Server.t;
  transport : Smtp.Client.transport;
  mutable phase : phase;
  mutable remaining : Smtp.Address.t list;  (* recipients not yet sent *)
  mutable accepted : int;
  mutable rejected : (Smtp.Address.t * Smtp.Reply.t) list;  (* newest first *)
  mutable tick : unit -> unit;
}

let schedule s phase delay =
  s.phase <- phase;
  ignore (Sim.Engine.schedule_after s.engine ~delay s.tick)

let next s phase = schedule s phase (s.rtt s.rng)

let close s outcome =
  (match outcome with
  | `Delivered _ -> ()
  | `Transient reason | `Permanent reason ->
      Log.debug (fun m ->
          m "%s -> %s: session failed: %s" (Smtp.Mta.hostname s.src)
            (Smtp.Mta.hostname s.dest) reason));
  s.on_close outcome

let fail_reply s ~at reply =
  let text = Smtp.Client.failure_to_string (Smtp.Client.Protocol_error { at; reply }) in
  if Smtp.Reply.is_transient_failure reply then close s (`Transient text)
  else close s (`Permanent text)

(* Send one line; a missing reply is the dialogue driver's protocol
   error, like [Client.deliver]. *)
let exchange s line =
  match s.transport.Smtp.Client.exchange line with
  | Some _ as reply -> reply
  | None ->
      fail_reply s ~at:line (Smtp.Reply.v 500 "no reply");
      None

(* A command whose positive reply moves the session to [phase]. *)
let expect s cmd phase =
  let line = Smtp.Command.to_line cmd in
  match exchange s line with
  | Some reply -> if Smtp.Reply.is_positive reply then next s phase else fail_reply s ~at:line reply
  | None -> ()

let greeting s =
  let banner = s.transport.Smtp.Client.greeting () in
  if banner.Smtp.Reply.code <> 220 then begin
    let text = Smtp.Client.failure_to_string (Smtp.Client.Connection_refused banner) in
    if Smtp.Reply.is_transient_failure banner then close s (`Transient text)
    else close s (`Permanent text)
  end
  else next s Helo

let rcpt s =
  match s.remaining with
  | [] ->
      if s.accepted = 0 then begin
        (* Close the session politely before reporting, like the
           synchronous client. *)
        ignore (s.transport.Smtp.Client.exchange "QUIT");
        close s
          (`Permanent
             (Smtp.Client.failure_to_string
                (Smtp.Client.All_recipients_rejected (List.rev s.rejected))))
      end
      else next s Data
  | rcpt :: rest -> (
      match exchange s (Smtp.Command.to_line (Smtp.Command.Rcpt_to rcpt)) with
      | Some reply ->
          s.remaining <- rest;
          if Smtp.Reply.is_positive reply then s.accepted <- s.accepted + 1
          else s.rejected <- (rcpt, reply) :: s.rejected;
          next s Rcpt
      | None -> ())

let data s =
  let line = Smtp.Command.to_line Smtp.Command.Data in
  match exchange s line with
  | Some reply when reply.Smtp.Reply.code = 354 ->
      (* The body crosses the wire at [bytes_per_sec] on top of its
         round trip; +1 is the terminating dot line, the same wire
         measure as the server's size check. *)
      let wire = float_of_int (Smtp.Message.size_bytes s.message + 1) /. s.bytes_per_sec in
      schedule s Dot (s.rtt s.rng +. wire)
  | Some reply -> fail_reply s ~at:line reply
  | None -> ()

let dot s =
  match Smtp.Client.send_data s.transport s.message with
  | Some reply when Smtp.Reply.is_positive reply ->
      Smtp.Mta.note_bytes_sent s.src (Smtp.Message.size_bytes s.message);
      List.iter
        (fun (env, msg) -> Smtp.Mta.accept_from_remote s.dest env msg)
        (Smtp.Server.take_received s.server);
      (* QUIT is pipelined with the dot acknowledgment: the sender has
         nothing further to say, so closing costs no extra round trip
         of simulated time. *)
      ignore (s.transport.Smtp.Client.exchange (Smtp.Command.to_line Smtp.Command.Quit));
      close s (`Delivered s.accepted)
  | Some reply -> fail_reply s ~at:"." reply
  | None -> fail_reply s ~at:"." (Smtp.Reply.v 500 "no reply")

let run s =
  if Smtp.Mta.is_down s.dest then close s (`Transient "host down (421)")
  else
    match s.phase with
    | Greeting -> greeting s
    | Helo -> expect s (Smtp.Command.Helo (Smtp.Mta.hostname s.src)) Mail
    | Mail -> expect s (Smtp.Command.Mail_from (Smtp.Envelope.sender s.envelope)) Rcpt
    | Rcpt -> rcpt s
    | Data -> data s
    | Dot -> dot s

let start ?(tap = Fun.id) ~engine ~rng ~rtt ~bytes_per_sec ~src ~dest envelope
    message ~on_close =
  Smtp.Mta.count_session src;
  let server = Smtp.Mta.open_server dest in
  let s =
    {
      engine;
      rng;
      rtt;
      bytes_per_sec;
      src;
      dest;
      envelope;
      message;
      on_close;
      server;
      transport = tap (Smtp.Client.of_server server);
      phase = Greeting;
      remaining = Smtp.Envelope.recipients envelope;
      accepted = 0;
      rejected = [];
      tick = ignore;
    }
  in
  s.tick <- (fun () -> run s);
  next s Greeting
