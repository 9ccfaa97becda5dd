type t =
  | Helo of string
  | Mail_from of Address.t
  | Rcpt_to of Address.t
  | Data
  | Rset
  | Noop
  | Quit
  | Vrfy of string

(* [prefix ^ local ^ "@" ^ domain ^ ">"], written into one buffer. *)
let path_line prefix (a : Address.t) =
  let pl = String.length prefix and ll = String.length a.local in
  let dl = String.length a.domain in
  let b = Bytes.create (pl + ll + dl + 2) in
  Bytes.blit_string prefix 0 b 0 pl;
  Bytes.blit_string a.local 0 b pl ll;
  Bytes.set b (pl + ll) '@';
  Bytes.blit_string a.domain 0 b (pl + ll + 1) dl;
  Bytes.set b (pl + ll + dl + 1) '>';
  Bytes.unsafe_to_string b

let to_line = function
  | Helo h -> "HELO " ^ h
  | Mail_from a -> path_line "MAIL FROM:<" a
  | Rcpt_to a -> path_line "RCPT TO:<" a
  | Data -> "DATA"
  | Rset -> "RSET"
  | Noop -> "NOOP"
  | Quit -> "QUIT"
  | Vrfy who -> "VRFY " ^ who

(* The line is read in place as the slice [i, stop) that [String.trim]
   would leave; verbs are matched case-insensitively against it, and
   only the argument is copied out. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_spaces s i stop = if i < stop && is_space (String.unsafe_get s i) then skip_spaces s (i + 1) stop else i

let rec trim_end s start stop =
  if stop > start && is_space (String.unsafe_get s (stop - 1)) then trim_end s start (stop - 1) else stop

(* [s.[i..]] begins with [verb], an uppercase ASCII word, in any case. *)
let rec verb_at s i verb j =
  j >= String.length verb
  || Char.uppercase_ascii (String.unsafe_get s (i + j)) = String.unsafe_get verb j
     && verb_at s i verb (j + 1)

let starts s i stop verb = stop - i >= String.length verb && verb_at s i verb 0
let is_verb s i stop verb = stop - i = String.length verb && verb_at s i verb 0

(* A path is ["<addr>"] or a bare ["addr"]; [i, stop) is trimmed. *)
let path s i stop =
  if stop - i >= 2 && String.unsafe_get s i = '<' && String.unsafe_get s (stop - 1) = '>' then
    Address.of_sub s ~pos:(i + 1) ~len:(stop - i - 2)
  else Address.of_sub s ~pos:i ~len:(stop - i)

(* HELO with the host after a verb ending at [a], trimmed. *)
let hostname verb s a stop =
  let a = skip_spaces s a stop in
  if a = stop then Error (verb ^ " requires a hostname") else Ok (Helo (String.sub s a (stop - a)))

let of_line line =
  let i = skip_spaces line 0 (String.length line) in
  let stop = trim_end line i (String.length line) in
  if is_verb line i stop "DATA" then Ok Data
  else if is_verb line i stop "RSET" then Ok Rset
  else if is_verb line i stop "NOOP" then Ok Noop
  else if is_verb line i stop "QUIT" then Ok Quit
  else if starts line i stop "HELO " then hostname "HELO" line (i + 5) stop
  else if starts line i stop "EHLO " then
    (* Treated as HELO: the simulator offers no extensions. *)
    hostname "EHLO" line (i + 5) stop
  else if starts line i stop "MAIL FROM:" then
    match path line (skip_spaces line (i + 10) stop) stop with
    | Ok a -> Ok (Mail_from a)
    | Error e -> Error e
  else if starts line i stop "RCPT TO:" then
    match path line (skip_spaces line (i + 8) stop) stop with
    | Ok a -> Ok (Rcpt_to a)
    | Error e -> Error e
  else if starts line i stop "VRFY " then
    let a = skip_spaces line (i + 5) stop in
    Ok (Vrfy (String.sub line a (stop - a)))
  else Error (Printf.sprintf "unrecognized command: %S" (String.sub line i (stop - i)))

let equal a b =
  match (a, b) with
  | Helo x, Helo y | Vrfy x, Vrfy y -> String.equal x y
  | Mail_from x, Mail_from y | Rcpt_to x, Rcpt_to y -> Address.equal x y
  | Data, Data | Rset, Rset | Noop, Noop | Quit, Quit -> true
  | (Helo _ | Mail_from _ | Rcpt_to _ | Data | Rset | Noop | Quit | Vrfy _), _ ->
      false

let pp ppf t = Format.pp_print_string ppf (to_line t)
