type t = { banned : (string, unit) Hashtbl.t }

let create () = { banned = Hashtbl.create 32 }
let ban_domain t d = Hashtbl.replace t.banned (String.lowercase_ascii d) ()

type verdict = Reject_blacklisted | Accept_unknown

let sender_domain sender =
  match String.index_opt sender '@' with
  | None -> sender
  | Some i -> String.sub sender (i + 1) (String.length sender - i - 1)

let check t ~sender =
  if Hashtbl.mem t.banned (String.lowercase_ascii (sender_domain sender)) then
    Reject_blacklisted
  else Accept_unknown
