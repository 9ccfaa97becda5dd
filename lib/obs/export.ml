(* JSON encoding is hand-rolled: the repo avoids external dependencies,
   and the subset needed (flat objects of ints/floats/bools/strings) is
   small enough to print and parse exactly. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape_string buf s =
  Buffer.add_char buf '"';
  (* Fast path: most strings are clean identifiers. *)
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* The C primitive behind [string_of_float]: a single snprintf, without
   the [Printf] format-interpretation overhead.  Exporting a trace
   prints one float per event, so this is on the hot path. *)
external format_float : string -> float -> string = "caml_format_float"

(* Print a float so [float_of_string] recovers it exactly.  Prefer the
   short form when it round-trips; force a marker so the JSON number
   re-parses as a float, not an int. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then
    string_of_int (int_of_float f) ^ ".0"
  else
    let short = format_float "%.12g" f in
    if float_of_string short = f then short
    else
      let s = format_float "%.17g" f in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

type value = Int of int | Float of float | Bool of bool | Str of string

(* Int lists travel as comma-joined strings ("1,2,3"), as they always
   have in the exported forms. *)
let int_list l = Str (String.concat "," (List.map string_of_int l))

(* Each kind's exported identity: component, name and fields in
   rendering order.  The typed payload is what the simulator emits and
   the checkers read; this view exists only for the text forms. *)
let view : Trace.payload -> string * string * (string * value) list = function
  | Isp_charge { user; dest } -> ("isp", "charge", [ ("user", Int user); ("dest", Int dest) ])
  | Isp_refund { user; dest } -> ("isp", "refund", [ ("user", Int user); ("dest", Int dest) ])
  | Isp_settle { from; rcpt } -> ("isp", "settle", [ ("from", Int from); ("rcpt", Int rcpt) ])
  | Isp_mint { peer; user } -> ("isp", "mint", [ ("peer", Int peer); ("user", Int user) ])
  | Isp_buy_begin { nonce; amount } ->
      ("isp", "buy", [ ("nonce", Int nonce); ("amount", Int amount) ])
  | Isp_buy_end { accepted } -> ("isp", "buy", [ ("accepted", Bool accepted) ])
  | Isp_sell_begin { nonce; amount } ->
      ("isp", "sell", [ ("nonce", Int nonce); ("amount", Int amount) ])
  | Isp_sell_end { accepted } -> ("isp", "sell", [ ("accepted", Bool accepted) ])
  | Isp_buy_apply { nonce; amount; accepted } ->
      ( "isp", "buy_apply",
        [ ("nonce", Int nonce); ("amount", Int amount); ("accepted", Bool accepted) ] )
  | Isp_sell_apply { nonce; amount; taken } ->
      ( "isp", "sell_apply",
        [ ("nonce", Int nonce); ("amount", Int amount); ("taken", Int taken) ] )
  | Isp_freeze { seq } -> ("isp", "freeze", [ ("seq", Int seq) ])
  | Isp_thaw { seq } -> ("isp", "thaw", [ ("seq", Int seq) ])
  | Credit_send { peer } -> ("credit", "send", [ ("peer", Int peer) ])
  | Credit_recv { peer } -> ("credit", "recv", [ ("peer", Int peer); ("early", Bool false) ])
  | Credit_recv_early { peer; epoch } ->
      ( "credit", "recv",
        [ ("peer", Int peer); ("early", Bool true); ("epoch", Int epoch) ] )
  | Credit_recv_amended { peer; epoch } ->
      ( "credit", "recv",
        [ ("peer", Int peer); ("early", Bool false); ("amended", Bool true);
          ("epoch", Int epoch) ] )
  | Credit_cancel { peer } -> ("credit", "cancel", [ ("peer", Int peer) ])
  | Credit_fold { upto; count } -> ("credit", "fold", [ ("upto", Int upto); ("count", Int count) ])
  | Credit_reset { promoted } -> ("credit", "reset", [ ("promoted", Int promoted) ])
  | Bank_buy { isp; nonce; amount; accepted } ->
      ( "bank", "buy",
        [ ("isp", Int isp); ("nonce", Int nonce); ("amount", Int amount);
          ("accepted", Bool accepted); ("replay", Bool false) ] )
  | Bank_buy_replay { isp; nonce; amount } ->
      ( "bank", "buy",
        [ ("isp", Int isp); ("nonce", Int nonce); ("amount", Int amount);
          ("replay", Bool true) ] )
  | Bank_sell { isp; nonce; amount } ->
      ( "bank", "sell",
        [ ("isp", Int isp); ("nonce", Int nonce); ("amount", Int amount);
          ("replay", Bool false) ] )
  | Bank_sell_replay { isp; nonce; amount } ->
      ( "bank", "sell",
        [ ("isp", Int isp); ("nonce", Int nonce); ("amount", Int amount);
          ("replay", Bool true) ] )
  | Bank_audit_reply { isp; seq; amended } ->
      ( "bank", "audit_reply",
        [ ("isp", Int isp); ("seq", Int seq); ("amended", Bool amended) ] )
  | Bank_reject { isp; reason } -> ("bank", "reject", [ ("isp", Int isp); ("reason", Str reason) ])
  | Bank_audit_begin { seq; absent } ->
      ("bank", "audit", [ ("seq", Int seq); ("absent", Int absent) ])
  | Bank_audit_end a ->
      ( "bank", "audit",
        [ ("seq", Int a.seq); ("violations", Int a.violations);
          ("suspects", Int a.suspects); ("absent", Int a.absent);
          ("rings", Int a.rings); ("convicted", Int a.convicted);
          ("cleared", Int a.cleared); ("lied_volume", Int a.lied_volume);
          ("ring_volume", Int a.ring_volume);
          ("convicted_isps", int_list a.convicted_isps);
          ("ring_isps", int_list a.ring_isps);
          ("cleared_isps", int_list a.cleared_isps) ] )
  | World_retransmit { timeout } -> ("world", "retransmit", [ ("timeout", Float timeout) ])
  | World_bankwire_drop { kind } -> ("world", "bankwire_drop", [ ("kind", Str kind) ])
  | World_bankwire_delay { delay } -> ("world", "bankwire_delay", [ ("delay", Float delay) ])
  | World_bankwire_inject { kind } -> ("world", "bankwire_inject", [ ("kind", Str kind) ])
  | World_audit_deferred_bank_down -> ("world", "audit_deferred", [ ("bank_down", Bool true) ])
  | World_audit_deferred { unreachable } ->
      ("world", "audit_deferred", [ ("unreachable", Int unreachable) ])
  | World_recover_failed { why } -> ("world", "recover_failed", [ ("why", Str why) ])
  | World_crash { downtime } -> ("world", "crash", [ ("downtime", Float downtime) ])
  | World_recover -> ("world", "recover", [])
  | World_bank_crash { downtime } -> ("world", "bank_crash", [ ("downtime", Float downtime) ])
  | World_bank_recover -> ("world", "bank_recover", [])
  | World_backpressured -> ("world", "backpressured", [])
  | World_refused_down -> ("world", "refused_down", [])
  | World_deferred -> ("world", "deferred", [])
  | Obs_checkpoint { total; outstanding; minted; quiescent } ->
      ( "obs", "checkpoint",
        [ ("total", Int total); ("outstanding", Int outstanding);
          ("minted", Int minted); ("quiescent", Bool quiescent) ] )

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Str s -> escape_string buf s

let phase_code = function
  | Trace.Instant -> "I"
  | Trace.Begin -> "B"
  | Trace.End -> "E"

let add_fields buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    fields;
  Buffer.add_char buf '}'

(* Serializers append into a shared document buffer: a 30k-event trace
   goes through here per event, so no intermediate strings. *)
let add_event_json buf (ev : Trace.event) =
  let comp, name, fields = view ev.payload in
  Buffer.add_string buf "{\"seq\":";
  Buffer.add_string buf (string_of_int ev.seq);
  Buffer.add_string buf ",\"t\":";
  Buffer.add_string buf (float_repr ev.time);
  Buffer.add_string buf ",\"comp\":";
  escape_string buf comp;
  Buffer.add_string buf ",\"actor\":";
  Buffer.add_string buf (string_of_int ev.actor);
  Buffer.add_string buf ",\"ph\":\"";
  Buffer.add_string buf (phase_code ev.phase);
  Buffer.add_string buf "\",\"name\":";
  escape_string buf name;
  Buffer.add_string buf ",\"span\":";
  Buffer.add_string buf (string_of_int ev.span);
  Buffer.add_string buf ",\"fields\":";
  add_fields buf fields;
  Buffer.add_char buf '}'

let event_to_json ev =
  let buf = Buffer.create 128 in
  add_event_json buf ev;
  Buffer.contents buf

let to_jsonl events =
  let buf = Buffer.create 65536 in
  List.iter
    (fun ev ->
      add_event_json buf ev;
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* --- Minimal JSON parser (objects, strings, numbers, booleans) --- *)

exception Parse_error of string

type token =
  | Lbrace
  | Rbrace
  | Colon
  | Comma
  | Tstring of string
  | Tint of int
  | Tfloat of float
  | Tbool of bool

type lexer = { src : string; mutable pos : int }

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let fail msg = raise (Parse_error msg)

let lex_string lx =
  (* lx.pos is on the opening quote *)
  lx.pos <- lx.pos + 1;
  let buf = Buffer.create 16 in
  let rec go () =
    if lx.pos >= String.length lx.src then fail "unterminated string";
    let c = lx.src.[lx.pos] in
    lx.pos <- lx.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
        if lx.pos >= String.length lx.src then fail "dangling escape";
        let e = lx.src.[lx.pos] in
        lx.pos <- lx.pos + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if lx.pos + 4 > String.length lx.src then fail "short \\u escape";
            let hex = String.sub lx.src lx.pos 4 in
            lx.pos <- lx.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            if code > 0xff then fail "non-latin \\u escape unsupported";
            Buffer.add_char buf (Char.chr code)
        | _ -> fail "unknown escape");
        go ()
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let lex_number lx =
  let start = lx.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while lx.pos < String.length lx.src && is_num_char lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  let s = String.sub lx.src start (lx.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
    try Tfloat (float_of_string s) with _ -> fail ("bad number " ^ s)
  else try Tint (int_of_string s) with _ -> fail ("bad number " ^ s)

let next_token lx =
  let rec skip () =
    match peek lx with
    | Some (' ' | '\t' | '\n' | '\r') ->
        lx.pos <- lx.pos + 1;
        skip ()
    | _ -> ()
  in
  skip ();
  match peek lx with
  | None -> fail "unexpected end of input"
  | Some '{' -> lx.pos <- lx.pos + 1; Lbrace
  | Some '}' -> lx.pos <- lx.pos + 1; Rbrace
  | Some ':' -> lx.pos <- lx.pos + 1; Colon
  | Some ',' -> lx.pos <- lx.pos + 1; Comma
  | Some '"' -> Tstring (lex_string lx)
  | Some 't' ->
      if lx.pos + 4 <= String.length lx.src
         && String.sub lx.src lx.pos 4 = "true"
      then (lx.pos <- lx.pos + 4; Tbool true)
      else fail "bad literal"
  | Some 'f' ->
      if lx.pos + 5 <= String.length lx.src
         && String.sub lx.src lx.pos 5 = "false"
      then (lx.pos <- lx.pos + 5; Tbool false)
      else fail "bad literal"
  | Some ('-' | '0' .. '9') -> lex_number lx
  | Some c -> fail (Printf.sprintf "unexpected character %C" c)

type json_value = Jint of int | Jfloat of float | Jbool of bool | Jstr of string

(* Parse a flat object of scalar values; [nested] allows one level of
   sub-object (for "fields"). *)
let rec parse_object lx : (string * [ `Scalar of json_value | `Obj of (string * json_value) list ]) list =
  (match next_token lx with Lbrace -> () | _ -> fail "expected '{'");
  let rec members acc =
    match next_token lx with
    | Rbrace -> List.rev acc
    | Tstring key -> (
        (match next_token lx with Colon -> () | _ -> fail "expected ':'");
        let value =
          match peek_nonspace lx with
          | Some '{' -> `Obj (parse_flat lx)
          | _ -> (
              match next_token lx with
              | Tstring s -> `Scalar (Jstr s)
              | Tint i -> `Scalar (Jint i)
              | Tfloat f -> `Scalar (Jfloat f)
              | Tbool b -> `Scalar (Jbool b)
              | _ -> fail "expected scalar value")
        in
        match next_token lx with
        | Comma -> members ((key, value) :: acc)
        | Rbrace -> List.rev ((key, value) :: acc)
        | _ -> fail "expected ',' or '}'")
    | _ -> fail "expected member key"
  in
  members []

and peek_nonspace lx =
  let save = lx.pos in
  let rec skip () =
    match peek lx with
    | Some (' ' | '\t' | '\n' | '\r') ->
        lx.pos <- lx.pos + 1;
        skip ()
    | c -> c
  in
  let c = skip () in
  lx.pos <- save;
  c

and parse_flat lx =
  List.map
    (fun (k, v) ->
      match v with
      | `Scalar s -> (k, s)
      | `Obj _ -> fail "unexpected nested object")
    (parse_object lx)

let value_of_json = function
  | Jint i -> Int i
  | Jfloat f -> Float f
  | Jbool b -> Bool b
  | Jstr s -> Str s

(* The inverse of [view]: the constructor is picked by component, name
   and (for span kinds) phase, its fields are read by key, and the
   payload must render back to exactly the fields given. *)
let payload_of ~comp ~name ~phase fields : Trace.payload =
  let kind = comp ^ "/" ^ name in
  let get key =
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> fail (kind ^ ": missing field " ^ key)
  in
  let bad key what = fail (Printf.sprintf "%s: %s: expected %s" kind key what) in
  let int key = match get key with Int i -> i | _ -> bad key "int" in
  let bool key = match get key with Bool b -> b | _ -> bad key "bool" in
  let float key = match get key with Float f -> f | _ -> bad key "float" in
  let str key = match get key with Str s -> s | _ -> bad key "string" in
  let ints key =
    match str key with
    | "" -> []
    | s ->
        List.map
          (fun part ->
            match int_of_string_opt part with
            | Some i -> i
            | None -> bad key "comma-separated ints")
          (String.split_on_char ',' s)
  in
  let payload : Trace.payload =
    match (comp, name, phase) with
    | "isp", "charge", _ -> Isp_charge { user = int "user"; dest = int "dest" }
    | "isp", "refund", _ -> Isp_refund { user = int "user"; dest = int "dest" }
    | "isp", "settle", _ -> Isp_settle { from = int "from"; rcpt = int "rcpt" }
    | "isp", "mint", _ -> Isp_mint { peer = int "peer"; user = int "user" }
    | "isp", "buy", Trace.Begin ->
        Isp_buy_begin { nonce = int "nonce"; amount = int "amount" }
    | "isp", "buy", Trace.End -> Isp_buy_end { accepted = bool "accepted" }
    | "isp", "sell", Trace.Begin ->
        Isp_sell_begin { nonce = int "nonce"; amount = int "amount" }
    | "isp", "sell", Trace.End -> Isp_sell_end { accepted = bool "accepted" }
    | "isp", "buy_apply", _ ->
        Isp_buy_apply
          { nonce = int "nonce"; amount = int "amount"; accepted = bool "accepted" }
    | "isp", "sell_apply", _ ->
        Isp_sell_apply { nonce = int "nonce"; amount = int "amount"; taken = int "taken" }
    | "isp", "freeze", _ -> Isp_freeze { seq = int "seq" }
    | "isp", "thaw", _ -> Isp_thaw { seq = int "seq" }
    | "credit", "send", _ -> Credit_send { peer = int "peer" }
    | "credit", "recv", _ ->
        if bool "early" then Credit_recv_early { peer = int "peer"; epoch = int "epoch" }
        else if List.mem_assoc "amended" fields then
          Credit_recv_amended { peer = int "peer"; epoch = int "epoch" }
        else Credit_recv { peer = int "peer" }
    | "credit", "cancel", _ -> Credit_cancel { peer = int "peer" }
    | "credit", "fold", _ -> Credit_fold { upto = int "upto"; count = int "count" }
    | "credit", "reset", _ -> Credit_reset { promoted = int "promoted" }
    | "bank", "buy", _ ->
        if bool "replay" then
          Bank_buy_replay { isp = int "isp"; nonce = int "nonce"; amount = int "amount" }
        else
          Bank_buy
            { isp = int "isp"; nonce = int "nonce"; amount = int "amount";
              accepted = bool "accepted" }
    | "bank", "sell", _ ->
        if bool "replay" then
          Bank_sell_replay { isp = int "isp"; nonce = int "nonce"; amount = int "amount" }
        else Bank_sell { isp = int "isp"; nonce = int "nonce"; amount = int "amount" }
    | "bank", "audit_reply", _ ->
        Bank_audit_reply { isp = int "isp"; seq = int "seq"; amended = bool "amended" }
    | "bank", "reject", _ -> Bank_reject { isp = int "isp"; reason = str "reason" }
    | "bank", "audit", Trace.Begin ->
        Bank_audit_begin { seq = int "seq"; absent = int "absent" }
    | "bank", "audit", Trace.End ->
        Bank_audit_end
          {
            seq = int "seq";
            violations = int "violations";
            suspects = int "suspects";
            absent = int "absent";
            rings = int "rings";
            convicted = int "convicted";
            cleared = int "cleared";
            lied_volume = int "lied_volume";
            ring_volume = int "ring_volume";
            convicted_isps = ints "convicted_isps";
            ring_isps = ints "ring_isps";
            cleared_isps = ints "cleared_isps";
          }
    | "world", "retransmit", _ -> World_retransmit { timeout = float "timeout" }
    | "world", "bankwire_drop", _ -> World_bankwire_drop { kind = str "kind" }
    | "world", "bankwire_delay", _ -> World_bankwire_delay { delay = float "delay" }
    | "world", "bankwire_inject", _ -> World_bankwire_inject { kind = str "kind" }
    | "world", "audit_deferred", _ ->
        if List.mem_assoc "bank_down" fields then World_audit_deferred_bank_down
        else World_audit_deferred { unreachable = int "unreachable" }
    | "world", "recover_failed", _ -> World_recover_failed { why = str "why" }
    | "world", "crash", _ -> World_crash { downtime = float "downtime" }
    | "world", "recover", _ -> World_recover
    | "world", "bank_crash", _ -> World_bank_crash { downtime = float "downtime" }
    | "world", "bank_recover", _ -> World_bank_recover
    | "world", "backpressured", _ -> World_backpressured
    | "world", "refused_down", _ -> World_refused_down
    | "world", "deferred", _ -> World_deferred
    | "obs", "checkpoint", _ ->
        Obs_checkpoint
          {
            total = int "total";
            outstanding = int "outstanding";
            minted = int "minted";
            quiescent = bool "quiescent";
          }
    | _ ->
        fail
          (Printf.sprintf "unknown event kind %s (phase %s)" kind (phase_code phase))
  in
  let _, _, rendered = view payload in
  if rendered <> fields then fail (kind ^ ": fields do not match the kind");
  payload

let event_of_json line =
  try
    let lx = { src = line; pos = 0 } in
    let members = parse_object lx in
    let scalar key =
      match List.assoc_opt key members with
      | Some (`Scalar v) -> v
      | Some (`Obj _) -> fail (key ^ ": expected scalar")
      | None -> fail ("missing key " ^ key)
    in
    let int key =
      match scalar key with Jint i -> i | _ -> fail (key ^ ": expected int")
    in
    let str key =
      match scalar key with Jstr s -> s | _ -> fail (key ^ ": expected string")
    in
    let time =
      match scalar "t" with
      | Jfloat f -> f
      | Jint i -> float_of_int i
      | _ -> fail "t: expected number"
    in
    let phase =
      match str "ph" with
      | "I" -> Trace.Instant
      | "B" -> Trace.Begin
      | "E" -> Trace.End
      | p -> fail ("unknown phase " ^ p)
    in
    let fields =
      match List.assoc_opt "fields" members with
      | Some (`Obj kvs) -> List.map (fun (k, v) -> (k, value_of_json v)) kvs
      | Some (`Scalar _) -> fail "fields: expected object"
      | None -> []
    in
    Ok
      {
        Trace.seq = int "seq";
        time;
        actor = int "actor";
        phase;
        span = int "span";
        payload = payload_of ~comp:(str "comp") ~name:(str "name") ~phase fields;
      }
  with Parse_error msg -> Error msg

let of_jsonl doc =
  let lines = String.split_on_char '\n' doc in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go acc rest
        else (
          match event_of_json line with
          | Ok ev -> go (ev :: acc) rest
          | Error e -> Error e)
  in
  go [] lines

(* --- Chrome trace_event format --- *)

let chrome_tid actor = if actor < 0 then 0 else actor + 1

let add_chrome_fields buf fields =
  Buffer.add_string buf "\"args\":";
  add_fields buf fields

let add_chrome_event buf (ev : Trace.event) =
  let ts = ev.time *. 1e6 in
  let comp, name, fields = view ev.payload in
  let common ph =
    Buffer.add_string buf "{\"name\":";
    escape_string buf name;
    Buffer.add_string buf ",\"cat\":";
    escape_string buf comp;
    Buffer.add_string buf ",\"ph\":\"";
    Buffer.add_string buf ph;
    Buffer.add_string buf "\",\"ts\":";
    Buffer.add_string buf (float_repr ts);
    Buffer.add_string buf ",\"pid\":0,\"tid\":";
    Buffer.add_string buf (string_of_int (chrome_tid ev.actor));
    Buffer.add_char buf ','
  in
  let span_id () =
    Buffer.add_string buf "\"id\":";
    Buffer.add_string buf (string_of_int ev.span);
    Buffer.add_char buf ','
  in
  (match ev.phase with
  | Trace.Instant ->
      common "i";
      Buffer.add_string buf "\"s\":\"t\","
  | Trace.Begin ->
      common "b";
      span_id ()
  | Trace.End ->
      common "e";
      span_id ());
  add_chrome_fields buf fields;
  Buffer.add_char buf '}'

let to_chrome events =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n'
  in
  (* Name the process and each actor's pseudo-thread. *)
  sep ();
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"zmail-sim\"}}";
  let tids =
    List.sort_uniq compare (List.map (fun ev -> ev.Trace.actor) events)
  in
  List.iter
    (fun actor ->
      let label = if actor < 0 then "bank+world" else Printf.sprintf "isp %d" actor in
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%s}}"
           (chrome_tid actor)
           (let b = Buffer.create 16 in
            escape_string b label;
            Buffer.contents b)))
    tids;
  List.iter
    (fun ev ->
      sep ();
      add_chrome_event buf ev)
    events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_file ~path ~format events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      match format with
      | `Jsonl -> output_string oc (to_jsonl events)
      | `Chrome -> output_string oc (to_chrome events))

let pp_value ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b
  | Str s -> Format.fprintf ppf "%S" s

let pp_event ppf (ev : Trace.event) =
  let comp, name, fields = view ev.payload in
  let phase =
    match ev.phase with
    | Trace.Instant -> ""
    | Trace.Begin -> Format.sprintf "[>%d] " ev.span
    | Trace.End -> Format.sprintf "[<%d] " ev.span
  in
  let actor =
    if ev.actor < 0 then comp else Format.sprintf "%s/%d" comp ev.actor
  in
  Format.fprintf ppf "[%12.3fs] %-10s %s%s" ev.time actor phase name;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v) fields

let pp_events ppf events =
  List.iter (fun ev -> Format.fprintf ppf "%a@." pp_event ev) events
