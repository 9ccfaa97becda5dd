type t = { fields : (string * string) list; body : string }

let zmail_payment_header = "X-Zmail-Payment"
let zmail_ack_header = "X-Zmail-Ack"
let zmail_epoch_header = "X-Zmail-Epoch"

(* Header names compare case-insensitively.  The comparison runs once
   per stored field per lookup on the delivery hot path, so it works
   character-by-character instead of lowercasing (= copying) both
   strings each time. *)
let lower_char c =
  if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

(* Top-level recursion rather than local closures: a closure that
   captures [a]/[b] (or [name]) is allocated afresh on every call. *)
let rec ci_equal_from a b i n =
  i >= n
  || (lower_char (String.unsafe_get a i) = lower_char (String.unsafe_get b i)
      && ci_equal_from a b (i + 1) n)

let ci_equal a b =
  String.length a = String.length b && ci_equal_from a b 0 (String.length a)

let rec find_field name = function
  | [] -> None
  | (n, v) :: rest -> if ci_equal n name then Some v else find_field name rest

let header t name = find_field name t.fields

let headers t = t.fields

let add_header t name value = { t with fields = t.fields @ [ (name, value) ] }

(* [string_of_int] is [format_int "%d"], a C call into [snprintf], and
   the per-message path renders integers into the Date, payment and
   epoch headers, the Message-Id and the Received stamp.  Digits are
   produced from the non-positive image of [n], which exists for every
   int, so [min_int] needs no special case ([m mod 10] is in [-9, 0]
   for [m <= 0]). *)
let rec count_digits m len =
  if m > -10 then len else count_digits (m / 10) (len + 1)

let rec write_digits b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then write_digits b (i - 1) (m / 10)

let decimal n =
  let m = if n > 0 then -n else n in
  let sign = if n < 0 then 1 else 0 in
  let len = sign + count_digits m 1 in
  let b = Bytes.create len in
  if sign = 1 then Bytes.unsafe_set b 0 '-';
  write_digits b (len - 1) m;
  Bytes.unsafe_to_string b

(* Simulated-time date rendering: day counter plus time of day, which
   keeps headers readable without a real calendar.  Rendered by hand —
   byte-identical to [Printf.sprintf "Day %d %02d:%02d:%02d +0000"] —
   because a Date header is stamped on every generated message and
   format interpretation dominated its cost. *)
let add_02d b n =
  if n < 10 then Buffer.add_char b '0';
  Buffer.add_string b (decimal n)

let render_date seconds =
  let day = int_of_float (seconds /. 86400.) in
  let rem = seconds -. (float_of_int day *. 86400.) in
  let h = int_of_float (rem /. 3600.) in
  let m = int_of_float ((rem -. (float_of_int h *. 3600.)) /. 60.) in
  let s = int_of_float (rem -. (float_of_int h *. 3600.) -. (float_of_int m *. 60.)) in
  let b = Buffer.create 24 in
  Buffer.add_string b "Day ";
  Buffer.add_string b (decimal day);
  Buffer.add_char b ' ';
  add_02d b h;
  Buffer.add_char b ':';
  add_02d b m;
  Buffer.add_char b ':';
  add_02d b s;
  Buffer.add_string b " +0000";
  Buffer.contents b

let make ~from ~to_ ?subject ?(headers = []) ?date ~body () =
  (* Field order: From, To, Subject?, Date?, extra headers.  Built
     back-to-front onto [headers] so nothing is copied. *)
  let to_line =
    match to_ with
    | [ a ] -> Address.to_string a
    | _ -> String.concat ", " (List.map Address.to_string to_)
  in
  let tl = headers in
  let tl =
    match date with None -> tl | Some d -> ("Date", render_date d) :: tl
  in
  let tl = match subject with None -> tl | Some s -> ("Subject", s) :: tl in
  { fields = ("From", Address.to_string from) :: ("To", to_line) :: tl; body }

let from t = Option.bind (header t "From") (fun v -> Result.to_option (Address.of_string v))

let recipients t =
  match header t "To" with
  | None -> []
  | Some v ->
      String.split_on_char ',' v
      |> List.filter_map (fun s ->
             Result.to_option (Address.of_string (String.trim s)))

let subject t = header t "Subject"
let body t = t.body

let mark_payment ?epoch t ~epennies =
  let tl =
    match epoch with
    | None -> []
    | Some seq -> [ (zmail_epoch_header, decimal seq) ]
  in
  { t with fields = t.fields @ (zmail_payment_header, decimal epennies) :: tl }

let payment t = Option.bind (header t zmail_payment_header) int_of_string_opt

let mark_epoch t ~seq = add_header t zmail_epoch_header (decimal seq)

let epoch t = Option.bind (header t zmail_epoch_header) int_of_string_opt

let mark_ack t ~of_id = add_header t zmail_ack_header of_id

let ack_of t = header t zmail_ack_header

let message_id t = header t "Message-Id"

let split_lines s = if s = "" then [] else String.split_on_char '\n' s

let to_lines t =
  List.map (fun (n, v) -> n ^ ": " ^ v) t.fields @ ("" :: split_lines t.body)

let of_lines lines =
  let rec parse_fields acc = function
    | [] -> Ok (List.rev acc, [])
    | "" :: rest -> Ok (List.rev acc, rest)
    | line :: rest -> (
        match String.index_opt line ':' with
        | None -> Error (Printf.sprintf "malformed header line %S" line)
        | Some i ->
            let name = String.sub line 0 i in
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            if name = "" || String.contains name ' ' then
              Error (Printf.sprintf "malformed header name in %S" line)
            else parse_fields ((name, value) :: acc) rest)
  in
  match parse_fields [] lines with
  | Error _ as e -> e
  | Ok (fields, body_lines) -> Ok { fields; body = String.concat "\n" body_lines }

let to_string t = String.concat "\n" (to_lines t)

let of_string s = of_lines (String.split_on_char '\n' s)

(* Arithmetically equal to [String.length (to_string t)] — each field
   renders as ["name: value\n"], the blank separator adds one byte, and
   a non-empty body follows the separator verbatim — without building
   the rendering.  A qcheck property in test_smtp pins the
   equivalence. *)
let size_bytes t =
  let fields =
    List.fold_left
      (fun acc (n, v) -> acc + String.length n + String.length v + 3)
      0 t.fields
  in
  fields + if t.body = "" then 0 else String.length t.body + 1

let pp ppf t = Format.pp_print_string ppf (to_string t)
