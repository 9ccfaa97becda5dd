(* A message is typed slots — the base block [make] sets (From, To,
   Subject, Date) and one slot per Zmail stamp — plus the generic
   fields [add_field] appends.  Every field is validated when it
   enters a message (by [make], [field], the stamp constructors or
   [of_lines]), so rendering and re-parsing any message is exact and no
   later hop re-checks it.  No header text is kept: the slots are
   rendered only when the message is written out, and [size] (the
   rendered length) is updated by every constructor. *)

type host = string

(* [found] is [Some value], built once with the field, so a [header]
   hit returns it without allocating. *)
type field = { name : string; value : string; found : string option }

(* [Text] never holds a value that reads back as [Seq]: see
   [message_id_of_text]. *)
type message_id = Seq of int * host | Text of string

type received = { from_domain : string; by : host; ms : int }

type t = {
  from : Address.t option;  (* [Some]: the message has a base block *)
  to_ : Address.t list;
  subject : string option;
  date : int;  (* the rendered clock, packed by [pack_clock], or [no_date] *)
  fields_rev : field list;  (* generic fields, newest first *)
  ack : string option;
  payment : int option;
  epoch : int option;
  message_id : message_id option;
  received : received option;
  body : string;
  size : int;  (* [String.length (to_string t)] *)
}

let from_header = "From"
let to_header = "To"
let subject_header = "Subject"
let date_header = "Date"
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
   captures [a]/[b] (or [name]) is allocated afresh on every call.
   Names almost always match in the same case, so equal bytes skip the
   case folding, and a caller that looks a field up by the very string
   it was built with matches without reading a byte.  [ci_at s p name j
   n]: [s.[p+j..p+n-1]] is [name.[j..n-1]] in any case. *)
let rec ci_at s p name j n =
  j >= n
  || (let c = String.unsafe_get s (p + j) and d = String.unsafe_get name j in
      (c = d || lower_char c = lower_char d) && ci_at s p name (j + 1) n)

let ci_equal a b = a == b || (String.length a = String.length b && ci_at a 0 b 0 (String.length a))

(* The name [s.[p..colon-1]] is [name] in any case. *)
let ci_named s p colon name = colon - p = String.length name && ci_at s p name 0 (colon - p)

let is_some = function Some _ -> true | None -> false

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
let reserved_at s p colon =
  let pl = String.length zmail_prefix in
  (colon - p >= pl && ci_at s p zmail_prefix 0 pl)
  || ci_named s p colon message_id_header
  || ci_named s p colon received_header

let reserved name = reserved_at name 0 (String.length name)

let check_header name value =
  if not (valid_name name) then Error (Printf.sprintf "invalid header name %S" name)
  else if reserved name then
    Error (Printf.sprintf "header name %S is reserved for a Zmail stamp" name)
  else if not (valid_value value) then
    Error (Printf.sprintf "invalid value for header %s: %S" name value)
  else Ok ()

let or_invalid fn = function Ok t -> t | Error e -> invalid_arg ("Smtp.Message." ^ fn ^ ": " ^ e)

let field name value =
  match check_header name value with
  | Ok () -> Ok { name; value; found = Some value }
  | Error e -> Error e

let field_exn name value = or_invalid "field" (field name value)

(* A host token: printable, no space or [';'], so ["from D by B;
   t=..."] splits back unambiguously. *)
let rec token_chars s i len =
  i >= len
  || (let c = String.unsafe_get s i in
      c > ' ' && c <= '~' && c <> ';' && token_chars s (i + 1) len)

let host s =
  if String.length s > 0 && token_chars s 0 (String.length s) then Ok s
  else Error (Printf.sprintf "invalid host %S" s)

let host_to_string h = h

(* ---- Integers ------------------------------------------------------ *)

(* [string_of_int] is [format_int "%d"], a C call into [snprintf].
   Digits are produced from the non-positive image of [n], which exists
   for every int, so [min_int] needs no special case ([m mod 10] is in
   [-9, 0] for [m <= 0]). *)
let rec count_digits m len =
  if m > -10 then len else count_digits (m / 10) (len + 1)

let rec write_digits b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then write_digits b (i - 1) (m / 10)

(* Digits of [n >= 0] by comparing with growing powers of ten: the
   constructors size every stamp and the Date with it, and a multiply
   is far cheaper than [count_digits]'s division per digit. *)
let max_power_step = max_int / 10

let rec nat_digits n p len =
  if n < p then len else if p > max_power_step then len + 1 else nat_digits n (p * 10) (len + 1)

let decimal_length n = if n >= 0 then nat_digits n 10 1 else 1 + count_digits n 1

(* Write [decimal n], [len = decimal_length n] bytes, at [pos]. *)
let put_decimal b pos len n =
  if n < 0 then Bytes.unsafe_set b pos '-';
  write_digits b (pos + len - 1) (if n > 0 then -n else n)

let decimal n =
  let len = decimal_length n in
  let b = Bytes.create len in
  put_decimal b 0 len n;
  Bytes.unsafe_to_string b

let is_digit c = c >= '0' && c <= '9'

let rec digits_end s i stop =
  if i < stop && is_digit (String.unsafe_get s i) then digits_end s (i + 1) stop else i

(* The value of the digits [s.[i..stop-1]], or -1 past [max_int]. *)
let rec nat_value s i stop acc =
  if i >= stop then acc
  else
    let d = Char.code (String.unsafe_get s i) - 48 in
    if acc > (max_int - d) / 10 then -1 else nat_value s (i + 1) stop ((acc * 10) + d)

(* [decimal (nat_value s i stop 0)] is exactly those digits. *)
let canonical_digits s i stop =
  stop > i && (stop = i + 1 || String.unsafe_get s i <> '0') && nat_value s i stop 0 >= 0

(* [n >= 0] exactly when [s.[i..stop-1] = decimal n]: no sign, prefix,
   underscore, leading zero or overflow; otherwise -1. *)
let nat_at s i stop =
  if digits_end s i stop = stop && canonical_digits s i stop then nat_value s i stop 0 else -1

(* ---- Rendering primitives ------------------------------------------ *)

(* Each writes its bytes at [i] and returns the position after them.
   The buffers are sized from the matching [*_length]; the checked
   [Bytes] operations keep a miscount from writing past them. *)
let put b i s =
  Bytes.blit_string s 0 b i (String.length s);
  i + String.length s

let put_char b i c =
  Bytes.set b i c;
  i + 1

let put_nat b i n =
  let len = decimal_length n in
  if i < 0 || i + len > Bytes.length b then invalid_arg "Smtp.Message.put_nat";
  put_decimal b i len n;
  i + len

let address_length (a : Address.t) = String.length a.local + 1 + String.length a.domain
let put_address b i (a : Address.t) = put b (put_char b (put b i a.local) '@') a.domain

let rec to_length_from acc = function
  | [] -> acc
  | a :: rest -> to_length_from (acc + 2 + address_length a) rest

let to_length = function [] -> 0 | a :: rest -> to_length_from (address_length a) rest

let rec put_to_rest b i = function
  | [] -> i
  | a :: rest -> put_to_rest b (put_address b (put b i ", ") a) rest

let put_to b i = function [] -> i | a :: rest -> put_to_rest b (put_address b i a) rest

let rec address_end s i stop =
  if i < stop && String.unsafe_get s i <> ',' then address_end s (i + 1) stop else i

(* The addresses [put_to] renders as exactly [s.[i..stop-1]]: no
   address holds a [','] or a space, so the rendering splits back at
   each [", "]. *)
let rec addresses_of_rendering s i stop =
  let e = address_end s i stop in
  match Address.of_rendering s ~pos:i ~len:(e - i) with
  | None -> None
  | Some a ->
      if e = stop then Some [ a ]
      else if e + 2 < stop && String.unsafe_get s (e + 1) = ' ' then
        match addresses_of_rendering s (e + 2) stop with
        | Some rest -> Some (a :: rest)
        | None -> None
      else None

let to_of_rendering s i stop = if i = stop then Some [] else addresses_of_rendering s i stop

(* ---- Date ---------------------------------------------------------- *)

(* Simulated-time date rendering: day counter plus time of day, which
   keeps headers readable without a real calendar, written as
   [Printf.sprintf "Day %d %02d:%02d:%02d +0000"].  The slot keeps the
   four numbers that format prints, packed into one int, so a message
   carries no Date text.  They are the clock the float arithmetic
   below gives, not integer seconds: just below a midnight,
   [seconds /. 86400.] can round up to the next day, and the header
   must then read that day at 00:00:00. *)
let no_date = -1
let max_seconds = 1e15

let pack_clock day h m s = (day lsl 24) lor (h lsl 16) lor (m lsl 8) lor s

(* Within [0, 1e15] the day is below 2^34 and [h], [m], [s] are
   truncations of values in [0, 60]; the mask check only guards that
   reasoning. *)
let date_of_seconds seconds =
  if not (seconds >= 0. && seconds <= max_seconds) then no_date
  else
    let day = int_of_float (seconds /. 86400.) in
    let rem = seconds -. (float_of_int day *. 86400.) in
    let h = int_of_float (rem /. 3600.) in
    let m = int_of_float ((rem -. (float_of_int h *. 3600.)) /. 60.) in
    let s = int_of_float (rem -. (float_of_int h *. 3600.) -. (float_of_int m *. 60.)) in
    if (h lor m lor s) land lnot 255 <> 0 then no_date else pack_clock day h m s

let width_02d n = if n < 10 then 2 else decimal_length n

let put_02d b i n =
  if n < 10 then put_char b (put_char b i '0') (Char.unsafe_chr (48 + n)) else put_nat b i n

let date_length d =
  decimal_length (d lsr 24)
  + width_02d ((d lsr 16) land 255)
  + width_02d ((d lsr 8) land 255)
  + width_02d (d land 255)
  + 13

let put_date b i d =
  let i = put_nat b (put b i "Day ") (d lsr 24) in
  let i = put_02d b (put_char b i ' ') ((d lsr 16) land 255) in
  let i = put_02d b (put_char b i ':') ((d lsr 8) land 255) in
  let i = put_02d b (put_char b i ':') (d land 255) in
  put b i " +0000"

let rec literal_at s i lit j =
  j >= String.length lit
  || (String.unsafe_get s (i + j) = String.unsafe_get lit j && literal_at s i lit (j + 1))

(* End of a [%02d] field of a value in [0, 255] starting at [i], or
   -1. *)
let clock_field_end s i stop =
  let e = digits_end s i stop in
  match e - i with
  | 2 -> e
  | 3 when String.unsafe_get s i <> '0' && nat_value s i e 0 <= 255 -> e
  | _ -> -1

let separated s e stop c = e >= 0 && e < stop && String.unsafe_get s e = c

(* The packed clock [put_date] renders as exactly [s.[i..stop-1]], or
   [no_date].  Compared in place; no string is built. *)
let date_of_rendering s i stop =
  if stop - i < 20 || not (literal_at s i "Day " 0) then no_date
  else
    let de = digits_end s (i + 4) stop in
    if de - (i + 4) > 12 || not (canonical_digits s (i + 4) de) || not (separated s de stop ' ')
    then no_date
    else
      let he = clock_field_end s (de + 1) stop in
      if not (separated s he stop ':') then no_date
      else
        let me = clock_field_end s (he + 1) stop in
        if not (separated s me stop ':') then no_date
        else
          let se = clock_field_end s (me + 1) stop in
          let day = nat_value s (i + 4) de 0 in
          if se < 0 || stop - se <> 6 || (not (literal_at s se " +0000" 0)) || day >= 1 lsl 38
          then no_date
          else
            pack_clock day
              (nat_value s (de + 1) he 0)
              (nat_value s (he + 1) me 0)
              (nat_value s (me + 1) se 0)

(* ---- Message-Id ---------------------------------------------------- *)

let message_id_of_seq seq host =
  if seq < 0 then invalid_arg "Smtp.Message.message_id_of_seq: negative sequence number";
  Seq (seq, host)

let message_id_length = function
  | Seq (seq, host) -> decimal_length seq + String.length host + 3
  | Text s -> String.length s

let put_message_id b i = function
  | Seq (seq, host) -> put_char b (put b (put_char b (put_nat b (put_char b i '<') seq) '@') host) '>'
  | Text s -> put b i s

(* The id [v.[i..stop-1]] reads as: [Seq] exactly when it is what a
   [Seq] renders, so each text has one representation and [of_lines]
   reads back what it is given. *)
let message_id_at v i stop =
  if
    stop - i < 4
    || String.unsafe_get v i <> '<'
    || String.unsafe_get v (stop - 1) <> '>'
  then Text (String.sub v i (stop - i))
  else
    let d = digits_end v (i + 1) (stop - 1) in
    if
      canonical_digits v (i + 1) d
      && d + 1 < stop - 1
      && String.unsafe_get v d = '@'
      && token_chars v (d + 1) (stop - 1)
    then Seq (nat_value v (i + 1) d 0, String.sub v (d + 1) (stop - d - 2))
    else Text (String.sub v i (stop - i))

let message_id_to_string = function
  | Text s -> s
  | Seq _ as id ->
      let b = Bytes.create (message_id_length id) in
      ignore (put_message_id b 0 id);
      Bytes.unsafe_to_string b

let in_reply_to id =
  let value = message_id_to_string id in
  { name = "In-Reply-To"; value; found = Some value }

(* ---- Received ------------------------------------------------------ *)

(* Milliseconds exactly as [Printf.sprintf "%.3f" x] rounds them.
   Scaled-integer rounding is exact except within a few ulp of a
   half-millisecond tie (where decimal rounding of the binary value
   could go either way), and for magnitudes where [x *. 1000.] loses
   the unit; those defer to [sprintf] and read its digits back.
   [scaled *. epsilon_float] is at least the ulp of [scaled] and costs
   no C call; over-estimating it only sends a few more near-ties to
   the exact path.  Away from a tie, adding 0.5 and truncating rounds
   as [Float.round] does.  A qcheck property in test_smtp pins the
   rendering against [sprintf]. *)
let millis_of_seconds x =
  if not (x >= 0. && x <= max_seconds) then
    invalid_arg (Printf.sprintf "Smtp.Message.stamp_received: time %h out of range" x);
  let scaled = x *. 1000. in
  let frac = scaled -. Float.of_int (int_of_float scaled) in
  if
    scaled < 1e15
    && Float.abs (frac -. 0.5) > 8. *. Float.max (scaled *. epsilon_float) epsilon_float
  then int_of_float (scaled +. 0.5)
  else
    let s = Printf.sprintf "%.3f" x in
    let dot = String.index s '.' in
    (int_of_string (String.sub s 0 dot) * 1000)
    + int_of_string (String.sub s (dot + 1) 3)

let received_length r =
  5 + String.length r.from_domain + 4 + String.length r.by + 4
  + decimal_length (r.ms / 1000) + 4

(* ["from " ^ from_domain ^ " by " ^ by ^ "; t=" ^ seconds with three
   decimals]. *)
let put_received b i r =
  let i = put b (put b (put b (put b i "from ") r.from_domain) " by ") r.by in
  let i = put_nat b (put b i "; t=") (r.ms / 1000) in
  let f = r.ms mod 1000 in
  let i = put_char b (put_char b i '.') (Char.unsafe_chr (48 + (f / 100))) in
  put_char b (put_char b i (Char.unsafe_chr (48 + (f / 10 mod 10)))) (Char.unsafe_chr (48 + (f mod 10)))

let rec index_at s i stop c = if i >= stop || String.unsafe_get s i = c then i else index_at s (i + 1) stop c

(* What a space in a [Scanf] format skips. *)
let is_scanf_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* The stamp [s.[i..stop-1]] holds, when it is exactly what
   [put_received] writes for it.  The fields are delimited as
   [Scanf.sscanf v "from %s@ by %s@; t=%d.%d%!"] delimits them (the
   domain runs to the first space, the host to the first [';'], and a
   format space skips [is_scanf_space] characters), so exactly the
   values that scan and re-render to themselves are read: no sign,
   leading zero or underscore, exactly three fraction digits, and one
   space at each separator.  Unlike that format, it refuses a host
   that {!host} refuses (empty, or holding a space or control
   character), so a stamp no constructor could write never reads
   back.  A test keeps the [Scanf] reader, so restricted, as the
   reference. *)
let received_at s i stop =
  let d = i + 5 in
  if d >= stop || (not (literal_at s i "from " 0)) || is_scanf_space (String.unsafe_get s d)
  then None
  else
    let de = index_at s d stop ' ' in
    let b = de + 4 in
    if b > stop || (not (literal_at s de " by " 0)) || (b < stop && is_scanf_space (String.unsafe_get s b))
    then None
    else
      let be = index_at s b stop ';' in
      let n = be + 4 in
      if n > stop || be = b || (not (token_chars s b be)) || not (literal_at s be "; t=" 0)
      then None
      else
        let ne = digits_end s n stop in
        if
          ne + 4 <> stop
          || String.unsafe_get s ne <> '.'
          || digits_end s (ne + 1) stop <> stop
          || not (canonical_digits s n ne)
        then None
        else
          let secs = nat_value s n ne 0 and f = nat_value s (ne + 1) stop 0 in
          if secs > (max_int - f) / 1000 then None
          else
            Some
              {
                from_domain = String.sub s d (de - d);
                by = String.sub s b (be - b);
                ms = (secs * 1000) + f;
              }

(* ---- Slots --------------------------------------------------------- *)

(* The typed fields in rendering order: the base block before the
   generic fields, the stamps after them. *)
type slot = From | To | Subject | Date | Ack | Payment | Epoch | Message_id | Received

let base_slots = [ From; To; Subject; Date ]
let stamp_slots = [ Ack; Payment; Epoch; Message_id; Received ]

let slot_name = function
  | From -> from_header
  | To -> to_header
  | Subject -> subject_header
  | Date -> date_header
  | Ack -> zmail_ack_header
  | Payment -> zmail_payment_header
  | Epoch -> zmail_epoch_header
  | Message_id -> message_id_header
  | Received -> received_header

let present t = function
  | From | To -> is_some t.from
  | Subject -> is_some t.subject
  | Date -> t.date <> no_date
  | Ack -> is_some t.ack
  | Payment -> is_some t.payment
  | Epoch -> is_some t.epoch
  | Message_id -> is_some t.message_id
  | Received -> is_some t.received


(* The rendered value's length, and its bytes written at [i]; 0 and
   nothing for an absent slot. *)
let value_length t = function
  | From -> ( match t.from with Some a -> address_length a | None -> 0)
  | To -> to_length t.to_
  | Subject -> ( match t.subject with Some s -> String.length s | None -> 0)
  | Date -> if t.date = no_date then 0 else date_length t.date
  | Ack -> ( match t.ack with Some a -> String.length a | None -> 0)
  | Payment -> ( match t.payment with Some p -> decimal_length p | None -> 0)
  | Epoch -> ( match t.epoch with Some e -> decimal_length e | None -> 0)
  | Message_id -> ( match t.message_id with Some id -> message_id_length id | None -> 0)
  | Received -> ( match t.received with Some r -> received_length r | None -> 0)

let put_value b i t = function
  | From -> ( match t.from with Some a -> put_address b i a | None -> i)
  | To -> put_to b i t.to_
  | Subject -> ( match t.subject with Some s -> put b i s | None -> i)
  | Date -> if t.date = no_date then i else put_date b i t.date
  | Ack -> ( match t.ack with Some a -> put b i a | None -> i)
  | Payment -> ( match t.payment with Some p -> put_nat b i p | None -> i)
  | Epoch -> ( match t.epoch with Some e -> put_nat b i e | None -> i)
  | Message_id -> ( match t.message_id with Some id -> put_message_id b i id | None -> i)
  | Received -> ( match t.received with Some r -> put_received b i r | None -> i)

let slot_value t s =
  let b = Bytes.create (value_length t s) in
  ignore (put_value b 0 t s);
  Bytes.unsafe_to_string b

(* ["name: "] at [i]. *)
let put_name b i name = put_char b (put_char b (put b i name) ':') ' '

let slot_line t s =
  let name = slot_name s in
  let b = Bytes.create (String.length name + 2 + value_length t s) in
  ignore (put_value b (put_name b 0 name) t s);
  Bytes.unsafe_to_string b

let field_line f =
  let b = Bytes.create (String.length f.name + 2 + String.length f.value) in
  ignore (put b (put_name b 0 f.name) f.value);
  Bytes.unsafe_to_string b

(* ---- Size ---------------------------------------------------------- *)

(* [String.length (to_string t)]: each field renders as
   ["name: value\n"], the blank separator adds one byte, and a
   non-empty body follows it verbatim.  The constructors add and
   subtract these terms; a reader sums them as it reads. *)
let field_size name value_length = String.length name + value_length + 3
let body_size body = if body = "" then 0 else String.length body + 1
let slot_size t s = if present t s then field_size (slot_name s) (value_length t s) else 0

let size_bytes t = t.size

(* ---- Construction -------------------------------------------------- *)

let empty =
  {
    from = None;
    to_ = [];
    subject = None;
    date = no_date;
    fields_rev = [];
    ack = None;
    payment = None;
    epoch = None;
    message_id = None;
    received = None;
    body = "";
    size = 0;
  }

(* A checked [Subject] value: validated once, when it is built. *)
type subject_line = string

let subject_error s = Printf.sprintf "invalid value for header Subject: %S" s
let date_error d = Printf.sprintf "Date %h outside [0, %g] seconds" d max_seconds

let subject_line s = if valid_value s then Ok s else Error (subject_error s)
let subject_line_exn s = or_invalid "subject_line" (subject_line s)

(* The size of a base block and body, before any other field. *)
let base_size from to_ subject date body =
  field_size from_header (address_length from)
  + field_size to_header (to_length to_)
  + (match subject with None -> 0 | Some s -> field_size subject_header (String.length s))
  + (if date = no_date then 0 else field_size date_header (date_length date))
  + body_size body

let packed_date = function None -> no_date | Some d -> date_of_seconds d

(* The same bytes rendered from a slot or from a generic field: a
   [Subject] or [Date] appended straight after a base block that lacks
   them, or a [To] after a lone [From], is exactly what [of_lines]
   would read into the base block, so it goes there.  This keeps one
   representation per rendering. *)
let append t f size = { t with fields_rev = f :: t.fields_rev; size }

let add_field t f =
  let size = t.size + field_size f.name (String.length f.value) in
  match t.fields_rev with
  | [] when is_some t.from && t.date = no_date ->
      if (not (is_some t.subject)) && String.equal f.name subject_header then
        { t with subject = f.found; size }
      else if String.equal f.name date_header then
        let d = date_of_rendering f.value 0 (String.length f.value) in
        if d = no_date then append t f size else { t with date = d; size }
      else append t f size
  | [ g ]
    when (not (is_some t.from))
         && String.equal g.name from_header
         && String.equal f.name to_header -> (
      match
        ( Address.of_rendering g.value ~pos:0 ~len:(String.length g.value),
          to_of_rendering f.value 0 (String.length f.value) )
      with
      | Some a, Some to_ -> { t with from = Some a; to_; fields_rev = []; size }
      | _, _ -> append t f size)
  | _ -> append t f size

(* The sizes a stamp constructor [fn] adds, checked first. *)
let payment_size fn epennies epoch =
  if epennies < 0 then invalid_arg ("Smtp.Message." ^ fn ^ ": negative payment");
  let epoch_size =
    match epoch with
    | Some e when e < 0 -> invalid_arg ("Smtp.Message." ^ fn ^ ": negative epoch")
    | Some e -> field_size zmail_epoch_header (decimal_length e)
    | None -> 0
  in
  field_size zmail_payment_header (decimal_length epennies) + epoch_size

let mark_payment ?epoch t ~epennies =
  let size =
    t.size - slot_size t Payment - slot_size t Epoch + payment_size "mark_payment" epennies epoch
  in
  { t with payment = Some epennies; epoch; size }

let ack_size fn of_id =
  if not (valid_value of_id) then
    invalid_arg
      (Printf.sprintf "Smtp.Message.%s: invalid %s value %S" fn zmail_ack_header of_id);
  field_size zmail_ack_header (String.length of_id)

let mark_ack t ~of_id =
  let size = t.size - slot_size t Ack + ack_size "mark_ack" of_id in
  { t with ack = Some of_id; size }

let rec fields_size size = function
  | [] -> size
  | f :: rest -> fields_size (size + field_size f.name (String.length f.value)) rest

(* [fields] newest first; a list of at most one field is its own
   reverse. *)
let rev_fields = function ([] | [ _ ]) as fields -> fields | fields -> List.rev fields

(* One record for what [make], [add_field], [mark_ack] and
   [mark_payment] build in turn.  The stamps only add their sizes, and
   the generic fields go straight to [fields_rev]: [add_field] folds a
   field into the base block only while it has no [Date], and that
   rare case takes [add_field] itself. *)
let build ~from ~to_ ?subject ?date ~fields ?ack ?payment ?epoch ~body () =
  let packed = packed_date date in
  (match date with
  | Some d when packed = no_date -> invalid_arg ("Smtp.Message.build: " ^ date_error d)
  | Some _ | None -> ());
  let ack_size = match ack with Some a -> ack_size "build" a | None -> 0 in
  let payment_size =
    match (payment, epoch) with
    | Some p, _ -> payment_size "build" p epoch
    | None, Some _ -> invalid_arg "Smtp.Message.build: epoch without payment"
    | None, None -> 0
  in
  let size = base_size from to_ subject packed body + ack_size + payment_size in
  match fields with
  | _ :: _ when packed = no_date ->
      let t =
        List.fold_left add_field { empty with from = Some from; to_; subject; body; size } fields
      in
      { t with ack; payment; epoch }
  | _ ->
      {
        from = Some from;
        to_;
        subject;
        date = packed;
        fields_rev = rev_fields fields;
        ack;
        payment;
        epoch;
        message_id = None;
        received = None;
        body;
        size = fields_size size fields;
      }

let make ~from ~to_ ?subject ?date ~body () =
  match (subject, date) with
  | Some s, _ when not (valid_value s) -> Error (subject_error s)
  | _, Some d when date_of_seconds d = no_date -> Error (date_error d)
  | _, _ -> Ok (build ~from ~to_ ?subject ?date ~fields:[] ~body ())

let make_exn ~from ~to_ ?subject ?date ~body () =
  or_invalid "make" (make ~from ~to_ ?subject ?date ~body ())

let stamp_message_id t id =
  let size =
    t.size - slot_size t Message_id
    + field_size message_id_header (message_id_length id)
  in
  { t with message_id = Some id; size }

let stamp_received t ~(from : Address.t) ~by ~at =
  let r = { from_domain = from.domain; by; ms = millis_of_seconds at } in
  let size =
    t.size - slot_size t Received + field_size received_header (received_length r)
  in
  { t with received = Some r; size }

(* ---- Reading ------------------------------------------------------- *)

let payment t = t.payment
let epoch t = t.epoch
let ack_of t = t.ack
let message_id t = t.message_id
let body t = t.body

(* The oldest match wins: [fields_rev] is newest first. *)
let rec find_oldest name found = function
  | [] -> found
  | f :: rest -> find_oldest name (if ci_equal f.name name then f.found else found) rest

let slot_opt t s = if present t s then Some (slot_value t s) else None

let stamp_header t name =
  if ci_equal name zmail_ack_header then t.ack
  else if ci_equal name zmail_payment_header then slot_opt t Payment
  else if ci_equal name zmail_epoch_header then slot_opt t Epoch
  else if ci_equal name message_id_header then slot_opt t Message_id
  else if ci_equal name received_header then slot_opt t Received
  else None

(* Generic fields never hold a stamp name, and a base name is found in
   the generic fields only when its slot is empty.  The length picks
   the base name to compare with. *)
let header t name =
  match String.length name with
  | 2 when is_some t.from && ci_equal name to_header -> slot_opt t To
  | 4 when is_some t.from && ci_equal name from_header -> slot_opt t From
  | 4 when t.date <> no_date && ci_equal name date_header -> slot_opt t Date
  | 7 when is_some t.subject && ci_equal name subject_header -> t.subject
  | _ -> if reserved name then stamp_header t name else find_oldest name None t.fields_rev

let from t =
  match t.from with
  | Some _ as a -> a
  | None ->
      Option.bind (find_oldest from_header None t.fields_rev) (fun v ->
          Result.to_option (Address.of_string v))

let recipients t =
  match t.from with
  | Some _ -> t.to_
  | None -> (
      match find_oldest to_header None t.fields_rev with
      | None -> []
      | Some v ->
          String.split_on_char ',' v
          |> List.filter_map (fun s -> Result.to_option (Address.of_string (String.trim s))))

let subject t =
  match t.subject with
  | Some _ as s -> s
  | None -> find_oldest subject_header None t.fields_rev

(* ---- Wire form ----------------------------------------------------- *)

let rec iter_slot_lines t f = function
  | [] -> ()
  | s :: rest ->
      if present t s then f (slot_line t s);
      iter_slot_lines t f rest

(* Oldest first: the recursion reaches the oldest field before calling. *)
let rec iter_field_lines f = function
  | [] -> ()
  | g :: older ->
      iter_field_lines f older;
      f (field_line g)

(* Each body line from [i]; a body without ['\n'] is passed whole. *)
let rec iter_body_lines body f i =
  let e = index_at body i (String.length body) '\n' in
  if i = 0 && e = String.length body then f body
  else begin
    f (String.sub body i (e - i));
    if e < String.length body then iter_body_lines body f (e + 1)
  end

let iter_lines t f =
  iter_slot_lines t f base_slots;
  iter_field_lines f t.fields_rev;
  iter_slot_lines t f stamp_slots;
  f "";
  if t.body <> "" then iter_body_lines t.body f 0

let rec put_slot_lines b i t = function
  | [] -> i
  | s :: rest ->
      let i =
        if present t s then put_char b (put_value b (put_name b i (slot_name s)) t s) '\n'
        else i
      in
      put_slot_lines b i t rest

(* Oldest first: the recursion reaches the oldest field before writing. *)
let rec put_field_lines b i = function
  | [] -> i
  | f :: older -> put_char b (put b (put_name b (put_field_lines b i older) f.name) f.value) '\n'

let to_string t =
  let b = Bytes.create t.size in
  let i = put_slot_lines b 0 t base_slots in
  let i = put_slot_lines b (put_field_lines b i t.fields_rev) t stamp_slots in
  if t.body <> "" then ignore (put b (put_char b i '\n') t.body);
  Bytes.unsafe_to_string b

(* ---- Reading the wire form --------------------------------------- *)

(* A reader takes the lines of a rendering one at a time and fills the
   slots in place.  Header lines are read in order.  Stamp lines go
   into their slots wherever they stand; a second copy of any stamp, an
   unknown [X-Zmail-*] name or a value that is not the exact rendering
   of a stamp is an error.  The other lines become generic fields,
   except that while no generic field has been read the base block is
   filled, by the rules [add_field] follows: a [From] line that renders
   from its address waits for a [To] line that renders from its list,
   and a base block lacking them then takes a [Subject] and a rendered
   [Date].  The checks compare in place; no string is built for a line
   the base block takes whole.

   Every line fed is also appended to [text], joined by ['\n'], so the
   body is one slice of it and the whole text is at hand for a caller
   that keeps a message that does not parse. *)
type reader = {
  mutable text : Bytes.t;
  mutable length : int;  (* bytes of [text] in use *)
  mutable lines : int;  (* lines fed *)
  mutable body_from : int;  (* -1 in the header block, then where the body starts in [text] *)
  mutable error : string option;  (* the first malformed header line; nothing is read after it *)
  mutable size : int;  (* rendered size of the header lines read *)
  mutable r_from : Address.t option;
  mutable r_to : Address.t list;
  mutable r_subject : string option;
  mutable r_date : int;
  mutable r_fields_rev : field list;
  mutable r_ack : string option;
  mutable r_payment : int option;
  mutable r_epoch : int option;
  mutable r_message_id : message_id option;
  mutable r_received : received option;
  (* A [From] line waiting for its [To] line: the address, and the
     line as [pending_line.[pending_pos..pending_stop-1]]. *)
  mutable pending : Address.t option;
  mutable pending_line : string;
  mutable pending_pos : int;
  mutable pending_stop : int;
}

let reader () =
  {
    text = Bytes.create 256;
    length = 0;
    lines = 0;
    body_from = -1;
    error = None;
    size = 0;
    r_from = None;
    r_to = [];
    r_subject = None;
    r_date = no_date;
    r_fields_rev = [];
    r_ack = None;
    r_payment = None;
    r_epoch = None;
    r_message_id = None;
    r_received = None;
    pending = None;
    pending_line = "";
    pending_pos = 0;
    pending_stop = 0;
  }

let append r s pos len =
  if r.length + len > Bytes.length r.text then begin
    let grown = Bytes.create (max (r.length + len) (2 * Bytes.length r.text)) in
    Bytes.blit r.text 0 grown 0 r.length;
    r.text <- grown
  end;
  Bytes.blit_string s pos r.text r.length len;
  r.length <- r.length + len

let fail r e = r.error <- Some e

(* A header line's value is what follows its first [':'], with
   [String.trim]'s spaces stripped from both ends. *)
let rec skip_spaces line i stop =
  if i < stop && is_trim_space (String.unsafe_get line i) then skip_spaces line (i + 1) stop
  else i

let rec trim_end line start stop =
  if stop > start && is_trim_space (String.unsafe_get line (stop - 1)) then
    trim_end line start (stop - 1)
  else stop

(* The name [line.[p..colon-1]] is exactly [name]. *)
let named line p colon name = colon - p = String.length name && literal_at line p name 0

(* The generic field a valid header line holds. *)
let field_at line p colon start stop =
  let value = String.sub line start (stop - start) in
  { name = String.sub line p (colon - p); value; found = Some value }

let field_of_line line p stop =
  let colon = index_at line p stop ':' in
  let start = skip_spaces line (colon + 1) stop in
  field_at line p colon start (trim_end line start stop)

let malformed_stamp r line p colon start stop =
  fail r
    (Printf.sprintf "malformed %s value %S" (String.sub line p (colon - p))
       (String.sub line start (stop - start)))

let duplicate_stamp r line p colon =
  fail r (Printf.sprintf "duplicate %s header" (String.sub line p (colon - p)))

let read_nat r line p colon start stop =
  let n = nat_at line start stop in
  if n < 0 then begin
    malformed_stamp r line p colon start stop;
    None
  end
  else Some n

let read_stamp r line p colon start stop =
  if ci_named line p colon zmail_ack_header then
    if is_some r.r_ack then duplicate_stamp r line p colon
    else r.r_ack <- Some (String.sub line start (stop - start))
  else if ci_named line p colon zmail_payment_header then
    if is_some r.r_payment then duplicate_stamp r line p colon
    else r.r_payment <- read_nat r line p colon start stop
  else if ci_named line p colon zmail_epoch_header then
    if is_some r.r_epoch then duplicate_stamp r line p colon
    else r.r_epoch <- read_nat r line p colon start stop
  else if ci_named line p colon message_id_header then
    if is_some r.r_message_id then duplicate_stamp r line p colon
    else r.r_message_id <- Some (message_id_at line start stop)
  else if ci_named line p colon received_header then
    if is_some r.r_received then duplicate_stamp r line p colon
    else
      match received_at line start stop with
      | Some _ as received -> r.r_received <- received
      | None -> malformed_stamp r line p colon start stop
  else fail r (Printf.sprintf "unknown Zmail header %S" (String.sub line p (colon - p)))

let push r f = r.r_fields_rev <- f :: r.r_fields_rev

(* A [From] line still waiting when [To] does not follow, or when the
   header block ends, stays a generic field. *)
let flush r =
  if is_some r.pending then begin
    push r (field_of_line r.pending_line r.pending_pos r.pending_stop);
    r.pending <- None
  end

let read_field r line p colon start stop =
  match (r.r_fields_rev, r.pending) with
  | [], Some a -> (
      match if named line p colon to_header then to_of_rendering line start stop else None with
      | Some to_ ->
          r.r_from <- Some a;
          r.r_to <- to_;
          r.pending <- None
      | None ->
          flush r;
          push r (field_at line p colon start stop))
  | [], None when not (is_some r.r_from) -> (
      match
        if named line p colon from_header then
          Address.of_rendering line ~pos:start ~len:(stop - start)
        else None
      with
      | Some _ as a ->
          r.pending <- a;
          r.pending_line <- line;
          r.pending_pos <- p;
          r.pending_stop <- String.length line
      | None -> push r (field_at line p colon start stop))
  | [], None when r.r_date = no_date ->
      if (not (is_some r.r_subject)) && named line p colon subject_header then
        r.r_subject <- Some (String.sub line start (stop - start))
      else
        let d =
          if named line p colon date_header then date_of_rendering line start stop else no_date
        in
        if d = no_date then push r (field_at line p colon start stop) else r.r_date <- d
  | _, _ -> push r (field_at line p colon start stop)

(* Every header line renders back as ["name: value\n"], its value
   trimmed: each slot and field is read only when it renders to exactly
   that, so the size is summed as the lines are read. *)
let read_header r line p =
  let len = String.length line in
  let colon = index_at line p len ':' in
  if colon = len then fail r (Printf.sprintf "malformed header line %S" (String.sub line p (len - p)))
  else
    let start = skip_spaces line (colon + 1) len in
    let stop = trim_end line start len in
    if colon = p || not (name_chars line p colon) then
      fail r (Printf.sprintf "malformed header name in %S" (String.sub line p (len - p)))
    else if not (value_chars line start stop) then
      fail r (Printf.sprintf "malformed header value in %S" (String.sub line p (len - p)))
    else begin
      r.size <- r.size + (colon - p) + (stop - start) + 3;
      if reserved_at line p colon then read_stamp r line p colon start stop
      else read_field r line p colon start stop
    end

let add_line r line ~pos =
  let len = String.length line - pos in
  if pos < 0 || len < 0 then invalid_arg "Smtp.Message.add_line";
  if r.lines > 0 then append r "\n" 0 1;
  append r line pos len;
  r.lines <- r.lines + 1;
  if r.body_from < 0 && not (is_some r.error) then
    if len = 0 then begin
      flush r;
      r.body_from <- r.length + 1
    end
    else read_header r line pos

let text r = Bytes.sub_string r.text 0 r.length

let finish r =
  match r.error with
  | Some e -> Error e
  | None ->
      if r.body_from < 0 then flush r;
      let body =
        if r.body_from < 0 || r.body_from >= r.length then ""
        else Bytes.sub_string r.text r.body_from (r.length - r.body_from)
      in
      Ok
        {
          from = r.r_from;
          to_ = r.r_to;
          subject = r.r_subject;
          date = r.r_date;
          fields_rev = r.r_fields_rev;
          ack = r.r_ack;
          payment = r.r_payment;
          epoch = r.r_epoch;
          message_id = r.r_message_id;
          received = r.r_received;
          body;
          size = r.size + body_size body;
        }

let rec add_lines r = function
  | [] -> ()
  | line :: rest ->
      add_line r line ~pos:0;
      add_lines r rest

let of_lines lines =
  let r = reader () in
  add_lines r lines;
  finish r

let of_string s = of_lines (String.split_on_char '\n' s)

let pp ppf t = Format.pp_print_string ppf (to_string t)
