type t = { sender : Address.t; recipients : Address.t list }

let rec mem r = function [] -> false | x :: xs -> Address.equal r x || mem r xs
let rec dup_free = function [] -> true | r :: rest -> (not (mem r rest)) && dup_free rest

let v ~sender ~recipients =
  if recipients = [] then invalid_arg "Envelope.v: no recipients";
  if not (dup_free recipients) then invalid_arg "Envelope.v: duplicate recipient";
  { sender; recipients }

let sender t = t.sender
let recipients t = t.recipients

let recipients_in t ~domain =
  let domain = String.lowercase_ascii domain in
  List.filter (fun r -> Address.domain r = domain) t.recipients

let domains t =
  List.fold_left
    (fun acc r ->
      let d = Address.domain r in
      if List.mem d acc then acc else acc @ [ d ])
    [] t.recipients

let equal a b =
  Address.equal a.sender b.sender
  && List.length a.recipients = List.length b.recipients
  && List.for_all2 Address.equal a.recipients b.recipients

let pp ppf t =
  Format.fprintf ppf "%a -> [%s]" Address.pp t.sender
    (String.concat "; " (List.map Address.to_string t.recipients))
