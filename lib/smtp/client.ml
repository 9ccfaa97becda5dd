type transport = {
  greeting : unit -> Reply.t;
  exchange : string -> Reply.t option;
}

let of_server server =
  {
    greeting = (fun () -> Server.greeting server);
    exchange = (fun line -> Server.on_line server line);
  }

type outcome = {
  accepted : Address.t list;
  rejected : (Address.t * Reply.t) list;
}

type failure =
  | Connection_refused of Reply.t
  | Protocol_error of { at : string; reply : Reply.t }
  | All_recipients_rejected of (Address.t * Reply.t) list

let failure_to_string = function
  | Connection_refused r -> "connection refused: " ^ Reply.to_line r
  | Protocol_error { at; reply } ->
      Printf.sprintf "unexpected reply to %s: %s" at (Reply.to_line reply)
  | All_recipients_rejected rs ->
      Printf.sprintf "all %d recipients rejected" (List.length rs)

let stuff line =
  if String.length line >= 1 && line.[0] = '.' then "." ^ line else line

let send_data transport message =
  Message.iter_lines message (fun line -> ignore (transport.exchange (stuff line)));
  transport.exchange "."

let command transport cmd =
  let line = Command.to_line cmd in
  match transport.exchange line with
  | Some reply -> Ok (line, reply)
  | None -> Error (Protocol_error { at = line; reply = Reply.v 500 "no reply" })

let expect_positive transport cmd =
  match command transport cmd with
  | Error _ as e -> e
  | Ok (line, reply) ->
      if Reply.is_positive reply then Ok reply
      else Error (Protocol_error { at = line; reply })

(* One RCPT per recipient, in envelope order; both lists are built
   newest first. *)
let rec send_recipients transport accepted_rev rejected_rev = function
  | [] -> (List.rev accepted_rev, List.rev rejected_rev)
  | rcpt :: rest -> (
      match command transport (Command.Rcpt_to rcpt) with
      | Ok (_, reply) when Reply.is_positive reply ->
          send_recipients transport (rcpt :: accepted_rev) rejected_rev rest
      | Ok (_, reply) -> send_recipients transport accepted_rev ((rcpt, reply) :: rejected_rev) rest
      | Error _ ->
          send_recipients transport accepted_rev
            ((rcpt, Reply.v 500 "no reply") :: rejected_rev)
            rest)

let deliver transport ~hostname envelope message =
  let banner = transport.greeting () in
  if banner.Reply.code <> 220 then Error (Connection_refused banner)
  else
    let ( let* ) = Result.bind in
    let* _ = expect_positive transport (Command.Helo hostname) in
    let* _ = expect_positive transport (Command.Mail_from (Envelope.sender envelope)) in
    match send_recipients transport [] [] (Envelope.recipients envelope) with
    | [], rejected ->
        (* Close the session politely before reporting failure. *)
        ignore (command transport Command.Quit);
        Error (All_recipients_rejected rejected)
    | accepted, rejected -> (
        let* data_reply = expect_positive transport Command.Data in
        if data_reply.Reply.code <> 354 then
          Error (Protocol_error { at = "DATA"; reply = data_reply })
        else
          match send_data transport message with
          | Some reply when Reply.is_positive reply ->
              ignore (command transport Command.Quit);
              Ok { accepted; rejected }
          | Some reply -> Error (Protocol_error { at = "."; reply })
          | None -> Error (Protocol_error { at = "."; reply = Reply.v 500 "no reply" }))
