(* A message is its generic fields plus one typed slot per Zmail stamp.
   Every field is validated when it enters a message (by [make],
   [add_header], the stamp constructors or [of_lines]), so rendering
   and re-parsing any message is exact and no later hop re-checks it.
   The stamps are rendered only when the message is written out. *)

type received = { from_domain : string; by : string; ms : int }

type t = {
  fields_rev : (string * string) list;  (* generic fields, newest first *)
  ack : string option;
  payment : int option;
  epoch : int option;
  message_id : string option;
  received : received option;
  body : string;
}

let zmail_payment_header = "X-Zmail-Payment"
let zmail_ack_header = "X-Zmail-Ack"
let zmail_epoch_header = "X-Zmail-Epoch"
let message_id_header = "Message-Id"
let received_header = "Received"

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

(* ---- Validation ---------------------------------------------------- *)

(* A name is printable US-ASCII (33-126) without [':'].  A value holds
   no CR, LF or NUL and neither starts nor ends with one of
   [String.trim]'s spaces, which the parser strips: together these make
   ["name: value"] one line that parses back to the same pair. *)
let rec name_chars n i len =
  i >= len
  || (let c = String.unsafe_get n i in
      c > ' ' && c <= '~' && c <> ':' && name_chars n (i + 1) len)

let valid_name n = String.length n > 0 && name_chars n 0 (String.length n)

let is_trim_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let rec value_chars v i len =
  i >= len
  || (match String.unsafe_get v i with
     | '\r' | '\n' | '\000' -> false
     | _ -> value_chars v (i + 1) len)

let valid_value v =
  let len = String.length v in
  len = 0
  || (not (is_trim_space (String.unsafe_get v 0)))
     && (not (is_trim_space (String.unsafe_get v (len - 1))))
     && value_chars v 0 len

let zmail_prefix = "x-zmail-"

(* The stamp names, in any case, belong to the typed slots. *)
let reserved name =
  let pl = String.length zmail_prefix in
  (String.length name >= pl && ci_equal_from name zmail_prefix 0 pl)
  || ci_equal name message_id_header
  || ci_equal name received_header

let check_header name value =
  if not (valid_name name) then Error (Printf.sprintf "invalid header name %S" name)
  else if reserved name then
    Error (Printf.sprintf "header name %S is reserved for a Zmail stamp" name)
  else if not (valid_value value) then
    Error (Printf.sprintf "invalid value for header %s: %S" name value)
  else Ok ()

(* ---- Integers ------------------------------------------------------ *)

(* [string_of_int] is [format_int "%d"], a C call into [snprintf], and
   the per-message path renders integers into the Date header and the
   Message-Id.  Digits
   are produced from the non-positive image of [n], which exists for
   every int, so [min_int] needs no special case ([m mod 10] is in
   [-9, 0] for [m <= 0]). *)
let rec count_digits m len =
  if m > -10 then len else count_digits (m / 10) (len + 1)

let rec write_digits b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then write_digits b (i - 1) (m / 10)

let decimal_length n = (if n < 0 then 1 else 0) + count_digits (if n > 0 then -n else n) 1

(* Write [decimal n], [len = decimal_length n] bytes, at [pos]. *)
let put_decimal b pos len n =
  if n < 0 then Bytes.unsafe_set b pos '-';
  write_digits b (pos + len - 1) (if n > 0 then -n else n)

let decimal n =
  let len = decimal_length n in
  let b = Bytes.create len in
  put_decimal b 0 len n;
  Bytes.unsafe_to_string b

(* [Some n] exactly when [s = decimal n] for some [n >= 0]: no sign,
   prefix, underscore, leading zero or overflow. *)
let nat_of_string s =
  match int_of_string_opt s with
  | Some n when n >= 0 && String.equal (decimal n) s -> Some n
  | Some _ | None -> None

(* ---- Received ------------------------------------------------------ *)

(* A host token in the Received stamp: printable, no space or [';'],
   so ["from D by B; t=..."] splits back unambiguously. *)
let rec token_chars s i len =
  i >= len
  || (let c = String.unsafe_get s i in
      c > ' ' && c <= '~' && c <> ';' && token_chars s (i + 1) len)

let valid_token s = String.length s > 0 && token_chars s 0 (String.length s)

let max_received_seconds = 1e15

(* Milliseconds exactly as [Printf.sprintf "%.3f" x] rounds them.
   Scaled-integer rounding is exact except within a few ulp of a
   half-millisecond tie (where decimal rounding of the binary value
   could go either way), and for magnitudes where [x *. 1000.] loses
   the unit; those defer to [sprintf] and read its digits back.  A
   qcheck property in test_smtp pins the rendering against
   [sprintf]. *)
let millis_of_seconds x =
  if not (x >= 0. && x <= max_received_seconds) then
    invalid_arg (Printf.sprintf "Smtp.Message.stamp_received: time %h out of range" x);
  let scaled = x *. 1000. in
  let frac = scaled -. Float.of_int (int_of_float scaled) in
  let ulp = Float.succ scaled -. scaled in
  if scaled < 1e15 && Float.abs (frac -. 0.5) > 8. *. Float.max ulp epsilon_float
  then int_of_float (Float.round scaled)
  else
    let s = Printf.sprintf "%.3f" x in
    let dot = String.index s '.' in
    (int_of_string (String.sub s 0 dot) * 1000)
    + int_of_string (String.sub s (dot + 1) 3)

let received_length r =
  5 + String.length r.from_domain + 4 + String.length r.by + 4
  + decimal_length (r.ms / 1000) + 4

(* ["from " ^ from_domain ^ " by " ^ by ^ "; t=" ^ seconds with three
   decimals], in one allocation past the digits. *)
let put b i s =
  Bytes.unsafe_blit_string s 0 b i (String.length s);
  i + String.length s

let render_received r =
  let b = Bytes.create (received_length r) in
  let i = put b 0 "from " in
  let i = put b i r.from_domain in
  let i = put b i " by " in
  let i = put b i r.by in
  let i = put b i "; t=" in
  let i = put b i (decimal (r.ms / 1000)) in
  Bytes.unsafe_set b i '.';
  let f = r.ms mod 1000 in
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr (48 + (f / 100)));
  Bytes.unsafe_set b (i + 2) (Char.unsafe_chr (48 + (f / 10 mod 10)));
  Bytes.unsafe_set b (i + 3) (Char.unsafe_chr (48 + (f mod 10)));
  Bytes.unsafe_to_string b

(* The inverse of [render_received]: a value parses only if rendering
   what was read gives it back byte for byte, which rules out signs,
   leading zeros, a short fraction and every other spelling [%d]
   would also read. *)
let parse_received s =
  match
    Scanf.sscanf s "from %s@ by %s@; t=%d.%d%!" (fun from_domain by secs f ->
        { from_domain; by; ms = (secs * 1000) + f })
  with
  | r when r.ms >= 0 && String.equal (render_received r) s -> Some r
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* ---- Construction -------------------------------------------------- *)

(* Simulated-time date rendering: day counter plus time of day, which
   keeps headers readable without a real calendar.  Rendered by hand
   into one allocation — byte-identical to
   [Printf.sprintf "Day %d %02d:%02d:%02d +0000"] — because a Date
   header is stamped on every generated message. *)
let width_02d n = (if n < 10 then 1 else 0) + decimal_length n

let put_02d b pos width n =
  if n < 10 then begin
    Bytes.unsafe_set b pos '0';
    put_decimal b (pos + 1) (width - 1) n
  end
  else put_decimal b pos width n

let render_date seconds =
  let day = int_of_float (seconds /. 86400.) in
  let rem = seconds -. (float_of_int day *. 86400.) in
  let h = int_of_float (rem /. 3600.) in
  let m = int_of_float ((rem -. (float_of_int h *. 3600.)) /. 60.) in
  let s = int_of_float (rem -. (float_of_int h *. 3600.) -. (float_of_int m *. 60.)) in
  let dl = decimal_length day and hl = width_02d h and ml = width_02d m in
  let sl = width_02d s in
  let b = Bytes.create (dl + hl + ml + sl + 13) in
  Bytes.unsafe_blit_string "Day " 0 b 0 4;
  put_decimal b 4 dl day;
  let i = 4 + dl in
  Bytes.unsafe_set b i ' ';
  put_02d b (i + 1) hl h;
  let i = i + 1 + hl in
  Bytes.unsafe_set b i ':';
  put_02d b (i + 1) ml m;
  let i = i + 1 + ml in
  Bytes.unsafe_set b i ':';
  put_02d b (i + 1) sl s;
  Bytes.unsafe_blit_string " +0000" 0 b (i + 1 + sl) 6;
  Bytes.unsafe_to_string b

let empty =
  {
    fields_rev = [];
    ack = None;
    payment = None;
    epoch = None;
    message_id = None;
    received = None;
    body = "";
  }

let make ~from ~to_ ?subject ?date ~body () =
  match subject with
  | Some s when not (valid_value s) ->
      Error (Printf.sprintf "invalid value for header Subject: %S" s)
  | Some _ | None ->
      (* Field order: From, To, Subject?, Date? — built newest first. *)
      let to_line =
        match to_ with
        | [ a ] -> Address.to_string a
        | _ -> String.concat ", " (List.map Address.to_string to_)
      in
      let fields = [ ("To", to_line); ("From", Address.to_string from) ] in
      let fields = match subject with None -> fields | Some s -> ("Subject", s) :: fields in
      let fields =
        match date with None -> fields | Some d -> ("Date", render_date d) :: fields
      in
      Ok { empty with fields_rev = fields; body }

let or_invalid fn = function Ok t -> t | Error e -> invalid_arg ("Smtp.Message." ^ fn ^ ": " ^ e)

let make_exn ~from ~to_ ?subject ?date ~body () =
  or_invalid "make" (make ~from ~to_ ?subject ?date ~body ())

let add_header t name value =
  match check_header name value with
  | Ok () -> Ok { t with fields_rev = (name, value) :: t.fields_rev }
  | Error e -> Error e

let add_header_exn t name value = or_invalid "add_header" (add_header t name value)

let mark_payment ?epoch t ~epennies =
  if epennies < 0 then invalid_arg "Smtp.Message.mark_payment: negative payment";
  (match epoch with
  | Some e when e < 0 -> invalid_arg "Smtp.Message.mark_payment: negative epoch"
  | Some _ | None -> ());
  { t with payment = Some epennies; epoch }

let stamp_value fn name value =
  if not (valid_value value) then
    invalid_arg (Printf.sprintf "Smtp.Message.%s: invalid %s value %S" fn name value)

let mark_ack t ~of_id =
  stamp_value "mark_ack" zmail_ack_header of_id;
  { t with ack = Some of_id }

let stamp_message_id t id =
  stamp_value "stamp_message_id" message_id_header id;
  { t with message_id = Some id }

let stamp_received t ~from_domain ~by ~at =
  if not (valid_token from_domain && valid_token by) then
    invalid_arg
      (Printf.sprintf "Smtp.Message.stamp_received: invalid host %S or %S"
         from_domain by);
  { t with received = Some { from_domain; by; ms = millis_of_seconds at } }

(* ---- Reading ------------------------------------------------------- *)

let payment t = t.payment
let epoch t = t.epoch
let ack_of t = t.ack
let message_id t = t.message_id
let body t = t.body

(* The stamps as (name, value) pairs, in their fixed rendering order. *)
let stamp_fields t =
  let tl =
    match t.received with
    | None -> []
    | Some r -> [ (received_header, render_received r) ]
  in
  let tl = match t.message_id with None -> tl | Some id -> (message_id_header, id) :: tl in
  let tl =
    match t.epoch with None -> tl | Some e -> (zmail_epoch_header, decimal e) :: tl
  in
  let tl =
    match t.payment with
    | None -> tl
    | Some p -> (zmail_payment_header, decimal p) :: tl
  in
  match t.ack with None -> tl | Some a -> (zmail_ack_header, a) :: tl

let headers t = List.rev_append t.fields_rev (stamp_fields t)

(* The oldest match wins: [fields_rev] is newest first. *)
let rec find_oldest name found = function
  | [] -> found
  | (n, v) :: rest -> find_oldest name (if ci_equal n name then Some v else found) rest

let stamp_header t name =
  if ci_equal name zmail_ack_header then t.ack
  else if ci_equal name zmail_payment_header then Option.map decimal t.payment
  else if ci_equal name zmail_epoch_header then Option.map decimal t.epoch
  else if ci_equal name message_id_header then t.message_id
  else if ci_equal name received_header then Option.map render_received t.received
  else None

let header t name =
  match find_oldest name None t.fields_rev with
  | Some _ as v -> v
  | None -> stamp_header t name

let from t = Option.bind (header t "From") (fun v -> Result.to_option (Address.of_string v))

let recipients t =
  match header t "To" with
  | None -> []
  | Some v ->
      String.split_on_char ',' v
      |> List.filter_map (fun s ->
             Result.to_option (Address.of_string (String.trim s)))

let subject t = header t "Subject"

(* ---- Wire form ----------------------------------------------------- *)

let render_line (n, v) =
  let nl = String.length n and vl = String.length v in
  let b = Bytes.create (nl + 2 + vl) in
  Bytes.unsafe_blit_string n 0 b 0 nl;
  Bytes.unsafe_set b nl ':';
  Bytes.unsafe_set b (nl + 1) ' ';
  Bytes.unsafe_blit_string v 0 b (nl + 2) vl;
  Bytes.unsafe_to_string b

let split_lines s = if s = "" then [] else String.split_on_char '\n' s

let to_lines t =
  let tail =
    List.fold_right
      (fun f acc -> render_line f :: acc)
      (stamp_fields t) ("" :: split_lines t.body)
  in
  List.fold_left (fun acc f -> render_line f :: acc) tail t.fields_rev

(* Store one stamp line; a second copy of any stamp, an unknown
   [X-Zmail-*] name or a value that is not the exact rendering of a
   stamp is an error. *)
let duplicate name = Error (Printf.sprintf "duplicate %s header" name)
let malformed name value = Error (Printf.sprintf "malformed %s value %S" name value)

let parse_stamp t name value =
  if ci_equal name zmail_ack_header then
    if t.ack <> None then duplicate name else Ok { t with ack = Some value }
  else if ci_equal name zmail_payment_header then
    if t.payment <> None then duplicate name
    else
      match nat_of_string value with
      | Some _ as p -> Ok { t with payment = p }
      | None -> malformed name value
  else if ci_equal name zmail_epoch_header then
    if t.epoch <> None then duplicate name
    else
      match nat_of_string value with
      | Some _ as e -> Ok { t with epoch = e }
      | None -> malformed name value
  else if ci_equal name message_id_header then
    if t.message_id <> None then duplicate name
    else Ok { t with message_id = Some value }
  else if ci_equal name received_header then
    if t.received <> None then duplicate name
    else
      match parse_received value with
      | Some _ as r -> Ok { t with received = r }
      | None -> malformed name value
  else Error (Printf.sprintf "unknown Zmail header %S" name)

let of_lines lines =
  let rec parse stamps fields_rev = function
    | [] -> Ok { stamps with fields_rev }
    | "" :: rest -> Ok { stamps with fields_rev; body = String.concat "\n" rest }
    | line :: rest -> (
        match String.index_opt line ':' with
        | None -> Error (Printf.sprintf "malformed header line %S" line)
        | Some i ->
            let name = String.sub line 0 i in
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            if not (valid_name name) then
              Error (Printf.sprintf "malformed header name in %S" line)
            else if not (valid_value value) then
              Error (Printf.sprintf "malformed header value in %S" line)
            else if reserved name then
              match parse_stamp stamps name value with
              | Ok stamps -> parse stamps fields_rev rest
              | Error _ as e -> e
            else parse stamps ((name, value) :: fields_rev) rest)
  in
  parse empty [] lines

let to_string t = String.concat "\n" (to_lines t)

let of_string s = of_lines (String.split_on_char '\n' s)

(* Arithmetically equal to [String.length (to_string t)] — each field
   renders as ["name: value\n"], the blank separator adds one byte, and
   a non-empty body follows the separator verbatim — without building
   the rendering.  A qcheck property in test_smtp pins the
   equivalence. *)
let field_size name value_length = String.length name + value_length + 3

let stamps_size t =
  (match t.ack with None -> 0 | Some a -> field_size zmail_ack_header (String.length a))
  + (match t.payment with None -> 0 | Some p -> field_size zmail_payment_header (decimal_length p))
  + (match t.epoch with None -> 0 | Some e -> field_size zmail_epoch_header (decimal_length e))
  + (match t.message_id with
    | None -> 0
    | Some id -> field_size message_id_header (String.length id))
  + match t.received with
    | None -> 0
    | Some r -> field_size received_header (received_length r)

let size_bytes t =
  let fields =
    List.fold_left
      (fun acc (n, v) -> acc + field_size n (String.length v))
      0 t.fields_rev
  in
  fields + stamps_size t + if t.body = "" then 0 else String.length t.body + 1

let pp ppf t = Format.pp_print_string ppf (to_string t)
