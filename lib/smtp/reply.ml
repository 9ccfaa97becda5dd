type t = { code : int; text : string }

let v code text =
  if code < 200 || code > 599 then
    invalid_arg (Printf.sprintf "Reply.v: invalid SMTP code %d" code);
  { code; text }

let service_ready ~hostname = v 220 (hostname ^ " Service ready")
let closing ~hostname = v 221 (hostname ^ " Service closing transmission channel")
let completed = v 250 "OK"
let completed_text text = v 250 text
let start_mail_input = v 354 "Start mail input; end with <CRLF>.<CRLF>"
let service_unavailable = v 421 "Service not available"
let syntax_error = v 500 "Syntax error, command unrecognized"
let bad_sequence = v 503 "Bad sequence of commands"
let mailbox_unavailable who = v 550 ("Requested action not taken: mailbox unavailable: " ^ who)
let transaction_failed why = v 554 ("Transaction failed: " ^ why)

let is_positive t = t.code >= 200 && t.code < 400
let is_transient_failure t = t.code >= 400 && t.code < 500

let to_line t = Printf.sprintf "%d %s" t.code t.text

let of_line line =
  if String.length line < 3 then Error (Printf.sprintf "reply too short: %S" line)
  else
    match int_of_string_opt (String.sub line 0 3) with
    | None -> Error (Printf.sprintf "missing reply code: %S" line)
    | Some code when code < 200 || code > 599 ->
        Error (Printf.sprintf "invalid reply code %d" code)
    | Some code ->
        let text =
          if String.length line > 4 then String.sub line 4 (String.length line - 4)
          else ""
        in
        Ok { code; text }

let equal a b = a.code = b.code && String.equal a.text b.text

let pp ppf t = Format.pp_print_string ppf (to_line t)
