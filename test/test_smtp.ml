(* Tests for the SMTP substrate. *)

let addr s = Smtp.Address.of_string_exn s

let host s =
  match Smtp.Message.host s with Ok h -> h | Error e -> invalid_arg e

(* A [Message-Id] as read off the wire. *)
let mid s =
  match Smtp.Message.of_lines [ "Message-Id: " ^ s ] with
  | Ok m -> Option.get (Smtp.Message.message_id m)
  | Error e -> invalid_arg e

(* A generic field checked and appended, as [field] and [add_field]
   do it for every caller. *)
let add_header m name value = Result.map (Smtp.Message.add_field m) (Smtp.Message.field name value)

let add_header_exn m name value = Smtp.Message.add_field m (Smtp.Message.field_exn name value)

(* The rendering as a line list, one [iter_lines] call per line. *)
let to_lines m =
  let lines = ref [] in
  Smtp.Message.iter_lines m (fun l -> lines := l :: !lines);
  List.rev !lines

(* ------------------------------------------------------------------ *)
(* Address                                                             *)
(* ------------------------------------------------------------------ *)

let test_address_parse () =
  let a = addr "alice@Example.COM" in
  Alcotest.(check string) "local" "alice" (Smtp.Address.local a);
  Alcotest.(check string) "domain lowercased" "example.com" (Smtp.Address.domain a);
  Alcotest.(check string) "to_string" "alice@example.com" (Smtp.Address.to_string a)

let test_address_invalid () =
  let bad = [ "noat"; "a@"; "@b"; "a@b@c"; "sp ace@x.com"; "a@dom ain" ] in
  List.iter
    (fun s ->
      match Smtp.Address.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_address_equal () =
  Alcotest.(check bool) "domain case-insensitive" true
    (Smtp.Address.equal (addr "a@X.com") (addr "a@x.COM"));
  Alcotest.(check bool) "local case-sensitive" false
    (Smtp.Address.equal (addr "A@x.com") (addr "a@x.com"))

let address_roundtrip =
  QCheck.Test.make ~name:"address to_string/of_string roundtrip" ~count:200
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_range 1 10) (Gen.oneofl [ 'a'; 'b'; 'z'; '0'; '.'; '_'; '+'; '-' ]))
        (string_gen_of_size (Gen.int_range 1 10) (Gen.oneofl [ 'x'; 'y'; '3'; '-'; '.' ])))
    (fun (local, domain) ->
      let a = Smtp.Address.v ~local ~domain in
      match Smtp.Address.of_string (Smtp.Address.to_string a) with
      | Ok b -> Smtp.Address.equal a b
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Message                                                             *)
(* ------------------------------------------------------------------ *)

let sample_message () =
  Smtp.Message.make_exn ~from:(addr "alice@a.com")
    ~to_:[ addr "bob@b.com"; addr "carol@c.com" ]
    ~subject:"Greetings" ~date:90061. ~body:"Hello\nWorld" ()

let test_message_headers () =
  let m = sample_message () in
  Alcotest.(check (option string)) "subject" (Some "Greetings") (Smtp.Message.subject m);
  Alcotest.(check (option string)) "case-insensitive" (Some "Greetings")
    (Smtp.Message.header m "SUBJECT");
  Alcotest.(check (option string)) "date rendered" (Some "Day 1 01:01:01 +0000")
    (Smtp.Message.header m "Date");
  (match Smtp.Message.from m with
  | Some a -> Alcotest.(check string) "from" "alice@a.com" (Smtp.Address.to_string a)
  | None -> Alcotest.fail "missing from");
  Alcotest.(check int) "two recipients" 2 (List.length (Smtp.Message.recipients m))

let test_message_roundtrip () =
  let m = sample_message () in
  match Smtp.Message.of_string (Smtp.Message.to_string m) with
  | Ok m' ->
      Alcotest.(check string) "body" (Smtp.Message.body m) (Smtp.Message.body m');
      Alcotest.(check (option string)) "subject" (Smtp.Message.subject m)
        (Smtp.Message.subject m')
  | Error e -> Alcotest.fail e

let test_message_empty_body () =
  let m = Smtp.Message.make_exn ~from:(addr "a@a.com") ~to_:[ addr "b@b.com" ] ~body:"" () in
  match Smtp.Message.of_string (Smtp.Message.to_string m) with
  | Ok m' -> Alcotest.(check string) "empty body" "" (Smtp.Message.body m')
  | Error e -> Alcotest.fail e

let test_message_malformed () =
  match Smtp.Message.of_lines [ "no colon here"; ""; "body" ] with
  | Ok _ -> Alcotest.fail "accepted malformed header"
  | Error _ -> ()

let test_message_zmail_headers () =
  let m = sample_message () in
  Alcotest.(check (option int)) "no payment" None (Smtp.Message.payment m);
  let m = Smtp.Message.mark_payment m ~epennies:3 in
  Alcotest.(check (option int)) "payment" (Some 3) (Smtp.Message.payment m);
  Alcotest.(check (option string)) "no ack" None (Smtp.Message.ack_of m);
  let m = Smtp.Message.mark_ack m ~of_id:"list-123" in
  Alcotest.(check (option string)) "ack id" (Some "list-123") (Smtp.Message.ack_of m);
  (* Round-trips through the wire form. *)
  match Smtp.Message.of_string (Smtp.Message.to_string m) with
  | Ok m' ->
      Alcotest.(check (option int)) "payment survives" (Some 3) (Smtp.Message.payment m');
      Alcotest.(check (option string)) "ack survives" (Some "list-123")
        (Smtp.Message.ack_of m')
  | Error e -> Alcotest.fail e

(* A stamp smuggled through a header name, and through a value.  Either
   would render as a second line the sender never stamped. *)
let smuggled_name = "Foo\nX-Zmail-Payment"
let smuggled_value = "x\r\nX-Zmail-Payment: 5"

let is_error what = function
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error _ -> ()

let test_message_header_injection () =
  let m = sample_message () in
  is_error "stamp smuggled through a name" (add_header m smuggled_name "5");
  is_error "stamp smuggled through a value"
    (add_header m "X-Note" smuggled_value);
  List.iter
    (fun subject ->
      is_error ("subject " ^ String.escaped subject)
        (Smtp.Message.make ~from:(addr "a@a.com") ~to_:[ addr "b@b.com" ] ~subject
           ~body:"" ()))
    [ smuggled_value; "hi\n" ^ smuggled_name ^ ": 5" ];
  List.iter
    (fun (n, v) ->
      is_error (Printf.sprintf "(%S, %S)" n v) (add_header m n v))
    [
      ("", "v"); ("Sp ace", "v"); ("Co:lon", "v"); ("Tab\t", "v"); ("Del\127", "v");
      ("X-Note", " lead"); ("X-Note", "trail\t"); ("X-Note", "n\000ul");
      ("X-Note", "bare\rcr"); ("X-Note", "bare\nlf"); ("Cr\r", "v");
      ("X-Zmail-Payment", "5"); ("x-zmail-epoch", "1"); ("X-ZMAIL-Whatever", "x");
      ("message-id", "<1@x>"); ("RECEIVED", "from a by b; t=0.000");
    ];
  match add_header m "X-Note" "inner  space\tand\011vt" with
  | Ok m' ->
      Alcotest.(check (option string)) "valid value kept"
        (Some "inner  space\tand\011vt") (Smtp.Message.header m' "x-note")
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Command / Reply codecs                                              *)
(* ------------------------------------------------------------------ *)

let test_command_roundtrip () =
  let cases =
    [
      Smtp.Command.Helo "mx.a.com";
      Smtp.Command.Mail_from (addr "alice@a.com");
      Smtp.Command.Rcpt_to (addr "bob@b.com");
      Smtp.Command.Data;
      Smtp.Command.Rset;
      Smtp.Command.Noop;
      Smtp.Command.Quit;
      Smtp.Command.Vrfy "bob";
    ]
  in
  List.iter
    (fun c ->
      match Smtp.Command.of_line (Smtp.Command.to_line c) with
      | Ok c' -> Alcotest.(check bool) (Smtp.Command.to_line c) true (Smtp.Command.equal c c')
      | Error e -> Alcotest.fail e)
    cases

let test_command_case_insensitive () =
  (match Smtp.Command.of_line "mail from:<a@b.com>" with
  | Ok (Smtp.Command.Mail_from a) ->
      Alcotest.(check string) "parsed" "a@b.com" (Smtp.Address.to_string a)
  | Ok _ | Error _ -> Alcotest.fail "expected MAIL FROM");
  match Smtp.Command.of_line "ehlo client.example" with
  | Ok (Smtp.Command.Helo h) -> Alcotest.(check string) "ehlo as helo" "client.example" h
  | Ok _ | Error _ -> Alcotest.fail "expected HELO"

let test_command_bare_path () =
  match Smtp.Command.of_line "RCPT TO:bob@b.com" with
  | Ok (Smtp.Command.Rcpt_to a) ->
      Alcotest.(check string) "bare path accepted" "bob@b.com" (Smtp.Address.to_string a)
  | Ok _ | Error _ -> Alcotest.fail "expected RCPT TO"

let test_command_invalid () =
  List.iter
    (fun line ->
      match Smtp.Command.of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [ "FOO"; "HELO"; "MAIL FROM:<not-an-address>"; "" ]

let test_reply_roundtrip () =
  let r = Smtp.Reply.mailbox_unavailable "bob@b.com" in
  match Smtp.Reply.of_line (Smtp.Reply.to_line r) with
  | Ok r' -> Alcotest.(check bool) "roundtrip" true (Smtp.Reply.equal r r')
  | Error e -> Alcotest.fail e

let test_reply_classes () =
  Alcotest.(check bool) "250 positive" true (Smtp.Reply.is_positive Smtp.Reply.completed);
  Alcotest.(check bool) "354 positive" true
    (Smtp.Reply.is_positive Smtp.Reply.start_mail_input);
  Alcotest.(check bool) "421 transient" true
    (Smtp.Reply.is_transient_failure Smtp.Reply.service_unavailable);
  Alcotest.(check bool) "bad code rejected" true
    (try
       ignore (Smtp.Reply.v 199 "nope");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Server state machine                                                *)
(* ------------------------------------------------------------------ *)

let make_server () =
  Smtp.Server.create ~hostname:"mx.b.com"
    ~policy:(Smtp.Server.default_policy ~local_domains:[ "b.com" ])

let feed server line =
  match Smtp.Server.on_line server line with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "expected a reply to %S" line)

let code server line = (feed server line).Smtp.Reply.code

(* Every form [int_of_string_opt] accepts besides [decimal n >= 0]. *)
let noncanonical_stamps =
  [ "0x1"; "0b11"; "0o7"; "0u1"; "1_000"; "+1"; "-1"; "01"; ""; "1 2";
    "4611686018427387904" ]

let stamped_lines stamp = [ "From: a@a.com"; "To: b@b.com"; stamp; ""; "body" ]

(* Deliver raw DATA lines through the server dialogue. *)
let through_dialogue data =
  let s = make_server () in
  List.iter
    (fun l -> ignore (Smtp.Server.on_line s l))
    ([ "HELO mx.a.com"; "MAIL FROM:<a@a.com>"; "RCPT TO:<b@b.com>"; "DATA" ]
    @ data @ [ "." ]);
  match Smtp.Server.take_received s with
  | [ (_, m) ] -> m
  | l -> Alcotest.failf "expected one message, got %d" (List.length l)

let check_unstamped what data =
  (match Smtp.Message.of_lines data with
  | Ok _ -> Alcotest.failf "of_lines accepted %s" what
  | Error _ -> ());
  let m = through_dialogue data in
  Alcotest.(check (option int)) (what ^ ": no payment") None (Smtp.Message.payment m);
  Alcotest.(check (option int)) (what ^ ": no epoch") None (Smtp.Message.epoch m);
  Alcotest.(check (option string)) (what ^ ": no ack") None (Smtp.Message.ack_of m);
  Alcotest.(check string) (what ^ ": opaque body") (String.concat "\n" data)
    (Smtp.Message.body m)

let test_message_canonical_stamps () =
  List.iter
    (fun name ->
      List.iter
        (fun v -> check_unstamped (name ^ ": " ^ v) (stamped_lines (name ^ ": " ^ v)))
        noncanonical_stamps;
      List.iter
        (fun (v, n) ->
          match Smtp.Message.of_lines (stamped_lines (name ^ ": " ^ v)) with
          | Ok m ->
              Alcotest.(check (option int)) (name ^ " " ^ v) (Some n)
                (if name = "X-Zmail-Payment" then Smtp.Message.payment m
                 else Smtp.Message.epoch m)
          | Error e -> Alcotest.fail e)
        [ ("0", 0); ("7", 7); ("4611686018427387903", max_int) ])
    [ "X-Zmail-Payment"; "X-Zmail-Epoch" ];
  List.iter
    (fun line ->
      check_unstamped ("repeated " ^ line)
        [ "From: a@a.com"; line; "X-Other: between"; line; ""; "body" ])
    [
      "X-Zmail-Payment: 1"; "X-Zmail-Epoch: 1"; "X-Zmail-Ack: l";
      "Message-Id: <1@x>"; "Received: from a.com by mx.b.com; t=1.000";
    ];
  List.iter
    (fun line -> check_unstamped line (stamped_lines line))
    [
      "X-Zmail-Unknown: 1"; "Received: from a.com by mx.b.com; t=1.0";
      "Received: from a.com  by mx.b.com; t=1.000"; "Received: by mx.b.com; t=1.000";
      "Received: from a.com by mx.b.com; t=01.000"; "Received: from a.com by mx.b.com;t=1.000";
    ]

let test_server_happy_path () =
  let s = make_server () in
  Alcotest.(check int) "banner" 220 (Smtp.Server.greeting s).Smtp.Reply.code;
  Alcotest.(check int) "helo" 250 (code s "HELO mx.a.com");
  Alcotest.(check int) "mail" 250 (code s "MAIL FROM:<alice@a.com>");
  Alcotest.(check int) "rcpt" 250 (code s "RCPT TO:<bob@b.com>");
  Alcotest.(check int) "data" 354 (code s "DATA");
  Alcotest.(check bool) "header line no reply" true
    (Smtp.Server.on_line s "Subject: hi" = None);
  Alcotest.(check bool) "blank line no reply" true (Smtp.Server.on_line s "" = None);
  Alcotest.(check bool) "body line no reply" true
    (Smtp.Server.on_line s "hello bob" = None);
  Alcotest.(check int) "terminator" 250 (code s ".");
  match Smtp.Server.take_received s with
  | [ (env, msg) ] ->
      Alcotest.(check string) "sender" "alice@a.com"
        (Smtp.Address.to_string (Smtp.Envelope.sender env));
      Alcotest.(check (option string)) "subject parsed" (Some "hi")
        (Smtp.Message.subject msg);
      Alcotest.(check string) "body" "hello bob" (Smtp.Message.body msg)
  | l -> Alcotest.failf "expected one message, got %d" (List.length l)

let test_server_bad_sequences () =
  let s = make_server () in
  Alcotest.(check int) "rcpt before helo" 503 (code s "RCPT TO:<bob@b.com>");
  Alcotest.(check int) "data before helo" 503 (code s "DATA");
  Alcotest.(check int) "helo" 250 (code s "HELO x");
  Alcotest.(check int) "rcpt before mail" 503 (code s "RCPT TO:<bob@b.com>");
  Alcotest.(check int) "data before rcpt path" 250 (code s "MAIL FROM:<a@a.com>");
  Alcotest.(check int) "data with no rcpt" 503 (code s "DATA");
  Alcotest.(check int) "double mail" 503 (code s "MAIL FROM:<a@a.com>")

let test_server_rejects_foreign_domain () =
  let s = make_server () in
  ignore (code s "HELO x");
  ignore (code s "MAIL FROM:<a@a.com>");
  Alcotest.(check int) "foreign rcpt refused" 550 (code s "RCPT TO:<eve@evil.com>");
  (* One good recipient still allows the transaction. *)
  Alcotest.(check int) "local rcpt ok" 250 (code s "RCPT TO:<bob@b.com>");
  Alcotest.(check int) "data ok" 354 (code s "DATA")

let test_server_rset () =
  let s = make_server () in
  ignore (code s "HELO x");
  ignore (code s "MAIL FROM:<a@a.com>");
  ignore (code s "RCPT TO:<bob@b.com>");
  Alcotest.(check int) "rset" 250 (code s "RSET");
  Alcotest.(check int) "data after rset" 503 (code s "DATA");
  Alcotest.(check int) "fresh transaction" 250 (code s "MAIL FROM:<a@a.com>")

let test_server_quit () =
  let s = make_server () in
  Alcotest.(check int) "quit" 221 (code s "QUIT");
  Alcotest.(check bool) "closed" true (Smtp.Server.closed s);
  Alcotest.(check int) "after quit" 421 (code s "NOOP")

let test_server_syntax_error () =
  let s = make_server () in
  Alcotest.(check int) "garbage" 500 (code s "MAKE ME A SANDWICH")

let test_server_dot_stuffing () =
  let s = make_server () in
  ignore (code s "HELO x");
  ignore (code s "MAIL FROM:<a@a.com>");
  ignore (code s "RCPT TO:<bob@b.com>");
  ignore (code s "DATA");
  ignore (Smtp.Server.on_line s "From: a@a.com");
  ignore (Smtp.Server.on_line s "");
  ignore (Smtp.Server.on_line s "..leading dot line");
  ignore (code s ".");
  match Smtp.Server.take_received s with
  | [ (_, msg) ] ->
      Alcotest.(check string) "unstuffed" ".leading dot line" (Smtp.Message.body msg)
  | _ -> Alcotest.fail "expected one message"

let test_server_duplicate_rcpt_idempotent () =
  let s = make_server () in
  ignore (code s "HELO x");
  ignore (code s "MAIL FROM:<a@a.com>");
  ignore (code s "RCPT TO:<bob@b.com>");
  Alcotest.(check int) "dup accepted" 250 (code s "RCPT TO:<bob@b.com>");
  ignore (code s "DATA");
  ignore (code s ".");
  match Smtp.Server.take_received s with
  | [ (env, _) ] ->
      Alcotest.(check int) "one recipient" 1
        (List.length (Smtp.Envelope.recipients env))
  | _ -> Alcotest.fail "expected one message"

let test_server_max_message_size () =
  let policy =
    { (Smtp.Server.default_policy ~local_domains:[ "b.com" ]) with
      Smtp.Server.max_message_bytes = 50 }
  in
  let s = Smtp.Server.create ~hostname:"mx.b.com" ~policy in
  ignore (code s "HELO x");
  ignore (code s "MAIL FROM:<a@a.com>");
  ignore (code s "RCPT TO:<bob@b.com>");
  ignore (code s "DATA");
  ignore (Smtp.Server.on_line s "Subject: short");
  ignore (Smtp.Server.on_line s "");
  ignore (Smtp.Server.on_line s (String.make 100 'x'));
  Alcotest.(check int) "oversized refused" 552 (code s ".");
  Alcotest.(check int) "nothing stored" 0 (List.length (Smtp.Server.take_received s));
  (* The session recovers: a small message goes through. *)
  ignore (code s "MAIL FROM:<a@a.com>");
  ignore (code s "RCPT TO:<bob@b.com>");
  ignore (code s "DATA");
  ignore (Smtp.Server.on_line s "tiny");
  Alcotest.(check int) "small accepted" 250 (code s ".");
  Alcotest.(check int) "stored" 1 (List.length (Smtp.Server.take_received s))

let test_server_max_recipients () =
  let policy =
    { (Smtp.Server.default_policy ~local_domains:[ "b.com" ]) with
      Smtp.Server.max_recipients = 2 }
  in
  let s = Smtp.Server.create ~hostname:"mx.b.com" ~policy in
  ignore (code s "HELO x");
  ignore (code s "MAIL FROM:<a@a.com>");
  ignore (code s "RCPT TO:<u1@b.com>");
  ignore (code s "RCPT TO:<u2@b.com>");
  Alcotest.(check int) "third refused" 554 (code s "RCPT TO:<u3@b.com>")

(* ------------------------------------------------------------------ *)
(* Client against server                                               *)
(* ------------------------------------------------------------------ *)

let test_client_delivery () =
  let s = make_server () in
  let transport = Smtp.Client.of_server s in
  let envelope =
    Smtp.Envelope.v ~sender:(addr "alice@a.com")
      ~recipients:[ addr "bob@b.com"; addr "eve@evil.com" ]
  in
  let message =
    Smtp.Message.make_exn ~from:(addr "alice@a.com") ~to_:[ addr "bob@b.com" ]
      ~subject:"x" ~body:".dotted\nplain" ()
  in
  match Smtp.Client.deliver transport ~hostname:"mx.a.com" envelope message with
  | Ok { accepted; rejected } ->
      Alcotest.(check int) "one accepted" 1 (List.length accepted);
      Alcotest.(check int) "one rejected" 1 (List.length rejected);
      (match Smtp.Server.take_received s with
      | [ (env, msg) ] ->
          Alcotest.(check int) "delivered to accepted only" 1
            (List.length (Smtp.Envelope.recipients env));
          Alcotest.(check string) "dot-stuffing round-trips" ".dotted\nplain"
            (Smtp.Message.body msg)
      | _ -> Alcotest.fail "expected one received message")
  | Error f -> Alcotest.fail (Smtp.Client.failure_to_string f)

let test_client_all_rejected () =
  let s = make_server () in
  let transport = Smtp.Client.of_server s in
  let envelope =
    Smtp.Envelope.v ~sender:(addr "alice@a.com") ~recipients:[ addr "eve@evil.com" ]
  in
  let message =
    Smtp.Message.make_exn ~from:(addr "alice@a.com") ~to_:[ addr "eve@evil.com" ] ~body:"x" ()
  in
  match Smtp.Client.deliver transport ~hostname:"mx.a.com" envelope message with
  | Error (Smtp.Client.All_recipients_rejected [ (_, reply) ]) ->
      Alcotest.(check int) "550" 550 reply.Smtp.Reply.code
  | Ok _ -> Alcotest.fail "should fail"
  | Error f -> Alcotest.fail (Smtp.Client.failure_to_string f)

(* ------------------------------------------------------------------ *)
(* Dns                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dns () =
  let d = Smtp.Dns.create () in
  Smtp.Dns.register d ~domain:"A.com" 1;
  Smtp.Dns.register d ~domain:"b.com" 2;
  Smtp.Dns.register d ~domain:"c.com" 1;
  Alcotest.(check (option int)) "case-insensitive" (Some 1)
    (Smtp.Dns.lookup d ~domain:"a.COM");
  Alcotest.(check (option int)) "missing" None (Smtp.Dns.lookup d ~domain:"nope.com");
  Alcotest.(check (option int)) "second domain of a host" (Some 1)
    (Smtp.Dns.lookup d ~domain:"c.com");
  Alcotest.(check int) "size" 3 (Smtp.Dns.size d)

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)
(* ------------------------------------------------------------------ *)

let test_mailbox () =
  let mb = Smtp.Mailbox.create () in
  let bob = addr "bob@b.com" in
  let m1 = Smtp.Message.make_exn ~from:(addr "a@a.com") ~to_:[ bob ] ~body:"1" () in
  let m2 = Smtp.Message.make_exn ~from:(addr "a@a.com") ~to_:[ bob ] ~body:"2" () in
  Smtp.Mailbox.deliver mb bob ~time:1. m1;
  Smtp.Mailbox.deliver mb bob ~time:2. m2;
  Alcotest.(check int) "count" 2 (Smtp.Mailbox.count mb bob);
  Alcotest.(check (list string)) "order" [ "1"; "2" ]
    (List.map Smtp.Message.body (Smtp.Mailbox.messages mb bob));
  Alcotest.(check int) "total" 2 (Smtp.Mailbox.total mb);
  Alcotest.(check int) "unknown user" 0 (Smtp.Mailbox.count mb (addr "x@b.com"));
  Smtp.Mailbox.clear mb bob;
  Alcotest.(check int) "cleared" 0 (Smtp.Mailbox.count mb bob)

(* ------------------------------------------------------------------ *)
(* MTA end-to-end on the simulated network                             *)
(* ------------------------------------------------------------------ *)

let make_world () =
  let engine = Sim.Engine.create ~seed:11 () in
  let net = Smtp.Mta.network engine in
  let mta_a = Smtp.Mta.create net ~hostname:"mx.a.com" ~domains:[ "a.com" ] in
  let mta_b = Smtp.Mta.create net ~hostname:"mx.b.com" ~domains:[ "b.com" ] in
  (engine, mta_a, mta_b)

let send_simple mta ~from ~to_ ~body =
  let envelope = Smtp.Envelope.v ~sender:from ~recipients:[ to_ ] in
  let message = Smtp.Message.make_exn ~from ~to_:[ to_ ] ~body () in
  Smtp.Mta.submit mta envelope message

let test_mta_remote_delivery () =
  let engine, mta_a, mta_b = make_world () in
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"hi bob";
  Sim.Engine.run engine;
  let inbox = Smtp.Mailbox.messages (Smtp.Mta.mailboxes mta_b) (addr "bob@b.com") in
  Alcotest.(check int) "delivered" 1 (List.length inbox);
  (match inbox with
  | [ m ] ->
      Alcotest.(check string) "body" "hi bob" (Smtp.Message.body m);
      Alcotest.(check bool) "received header stamped" true
        (Smtp.Message.header m "Received" <> None)
  | _ -> assert false);
  let sa = Smtp.Mta.stats mta_a and sb = Smtp.Mta.stats mta_b in
  Alcotest.(check int) "submitted" 1 sa.Smtp.Mta.submitted;
  Alcotest.(check int) "one session" 1 sa.Smtp.Mta.sessions;
  Alcotest.(check bool) "bytes counted" true (sa.Smtp.Mta.bytes_sent > 0);
  Alcotest.(check int) "delivered at b" 1 sb.Smtp.Mta.delivered

let test_mta_local_delivery () =
  let engine, mta_a, _ = make_world () in
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "amy@a.com") ~body:"local";
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered locally" 1
    (Smtp.Mailbox.count (Smtp.Mta.mailboxes mta_a) (addr "amy@a.com"));
  Alcotest.(check int) "no remote session" 0 (Smtp.Mta.stats mta_a).Smtp.Mta.sessions

let test_mta_multi_domain_split () =
  let engine, mta_a, mta_b = make_world () in
  let from = addr "alice@a.com" in
  let recipients = [ addr "amy@a.com"; addr "bob@b.com"; addr "bill@b.com" ] in
  let envelope = Smtp.Envelope.v ~sender:from ~recipients in
  let message = Smtp.Message.make_exn ~from ~to_:recipients ~body:"fanout" () in
  Smtp.Mta.submit mta_a envelope message;
  Sim.Engine.run engine;
  Alcotest.(check int) "local copy" 1
    (Smtp.Mailbox.count (Smtp.Mta.mailboxes mta_a) (addr "amy@a.com"));
  Alcotest.(check int) "bob copy" 1
    (Smtp.Mailbox.count (Smtp.Mta.mailboxes mta_b) (addr "bob@b.com"));
  Alcotest.(check int) "bill copy" 1
    (Smtp.Mailbox.count (Smtp.Mta.mailboxes mta_b) (addr "bill@b.com"));
  (* Both b.com recipients travel in one SMTP session. *)
  Alcotest.(check int) "single remote session" 1 (Smtp.Mta.stats mta_a).Smtp.Mta.sessions

let test_mta_no_mx_bounces () =
  let engine, mta_a, _ = make_world () in
  let reasons = ref [] in
  Smtp.Mta.set_on_bounce mta_a (fun _env _m reason -> reasons := reason :: !reasons);
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@nowhere.com") ~body:"x";
  Sim.Engine.run engine;
  let s = Smtp.Mta.stats mta_a in
  Alcotest.(check int) "bounced" 1 s.Smtp.Mta.bounced;
  match !reasons with
  | [ reason ] ->
      Alcotest.(check bool) "reason mentions MX" true
        (String.length reason > 0)
  | l -> Alcotest.failf "expected 1 dead letter, got %d" (List.length l)

let test_mta_down_host_retries_then_bounces () =
  let engine, mta_a, mta_b = make_world () in
  Smtp.Mta.set_down mta_b true;
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"x";
  Sim.Engine.run engine;
  let s = Smtp.Mta.stats mta_a in
  Alcotest.(check int) "three attempts" 3 s.Smtp.Mta.sessions;
  Alcotest.(check int) "bounced after retries" 1 s.Smtp.Mta.bounced;
  Alcotest.(check int) "nothing delivered" 0 (Smtp.Mta.stats mta_b).Smtp.Mta.delivered

let test_mta_down_host_recovers () =
  let engine, mta_a, mta_b = make_world () in
  Smtp.Mta.set_down mta_b true;
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"x";
  (* Bring the host back before the first retry fires (60 s backoff). *)
  ignore (Sim.Engine.schedule_after engine ~delay:30. (fun () -> Smtp.Mta.set_down mta_b false));
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered on retry" 1
    (Smtp.Mailbox.count (Smtp.Mta.mailboxes mta_b) (addr "bob@b.com"));
  Alcotest.(check int) "no bounce" 0 (Smtp.Mta.stats mta_a).Smtp.Mta.bounced

let test_mta_inbound_filter () =
  let engine, mta_a, mta_b = make_world () in
  Smtp.Mta.set_inbound_filter mta_b (fun ~sender ~rcpt:_ m ->
      if Smtp.Address.local sender = "spammer" then Smtp.Mta.Discard "spam"
      else if Smtp.Message.header m "X-Protocol" <> None then Smtp.Mta.Intercept
      else Smtp.Mta.Deliver);
  send_simple mta_a ~from:(addr "spammer@a.com") ~to_:(addr "bob@b.com") ~body:"buy!";
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"hi";
  let proto =
    add_header_exn
      (Smtp.Message.make_exn ~from:(addr "alice@a.com") ~to_:[ addr "bob@b.com" ] ~body:"" ())
      "X-Protocol" "ack"
  in
  Smtp.Mta.submit mta_a
    (Smtp.Envelope.v ~sender:(addr "alice@a.com") ~recipients:[ addr "bob@b.com" ])
    proto;
  Sim.Engine.run engine;
  let s = Smtp.Mta.stats mta_b in
  Alcotest.(check int) "one delivered" 1 s.Smtp.Mta.delivered;
  Alcotest.(check int) "one discarded" 1 s.Smtp.Mta.discarded;
  Alcotest.(check int) "one intercepted" 1 s.Smtp.Mta.intercepted;
  Alcotest.(check int) "inbox has only legit mail" 1
    (Smtp.Mailbox.count (Smtp.Mta.mailboxes mta_b) (addr "bob@b.com"))

let test_mta_outbound_stamp () =
  let engine, mta_a, mta_b = make_world () in
  Smtp.Mta.set_outbound_stamp mta_a (fun _env m -> Smtp.Message.mark_payment m ~epennies:1);
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"paid";
  Sim.Engine.run engine;
  match Smtp.Mailbox.messages (Smtp.Mta.mailboxes mta_b) (addr "bob@b.com") with
  | [ m ] ->
      Alcotest.(check (option int)) "payment header survived the wire" (Some 1)
        (Smtp.Message.payment m)
  | _ -> Alcotest.fail "expected delivery"

let test_mta_on_delivered_hook () =
  let engine, mta_a, mta_b = make_world () in
  let seen = ref [] in
  Smtp.Mta.set_on_delivered mta_b (fun ~rcpt _m ->
      seen := Smtp.Address.to_string rcpt :: !seen);
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"x";
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "hook fired" [ "bob@b.com" ] !seen

let test_mta_duplicate_domain_rejected () =
  let engine = Sim.Engine.create () in
  let net = Smtp.Mta.network engine in
  ignore (Smtp.Mta.create net ~hostname:"mx1" ~domains:[ "a.com" ]);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Smtp.Mta.create net ~hostname:"mx2" ~domains:[ "a.com" ]);
       false
     with Invalid_argument _ -> true)

(* A hostname that cannot be a stamp token used to pass [create] and
   abort the run at the first delivery, when [Received] was stamped
   inside an engine callback. *)
let test_mta_invalid_hostname_rejected () =
  let engine = Sim.Engine.create () in
  let net = Smtp.Mta.network engine in
  List.iter
    (fun hostname ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" hostname) true
        (try
           ignore (Smtp.Mta.create net ~hostname ~domains:[ "a.com" ]);
           false
         with Invalid_argument _ -> true))
    [ "mx 1"; "mx;1"; ""; "mx\t1"; "mx\n1"; "mx\1271" ];
  (* Nothing was registered by the refused calls. *)
  let mta_a = Smtp.Mta.create net ~hostname:"mx.a.com" ~domains:[ "a.com" ] in
  let mta_b = Smtp.Mta.create net ~hostname:"mx.b.com" ~domains:[ "b.com" ] in
  Alcotest.(check string) "valid host kept" "mx.a.com" (Smtp.Mta.hostname mta_a);
  let from = addr "alice@a.com" and to_ = addr "bob@b.com" in
  Smtp.Mta.submit mta_a
    (Smtp.Envelope.v ~sender:from ~recipients:[ to_ ])
    (Smtp.Message.make_exn ~from ~to_:[ to_ ] ~body:"x" ());
  Sim.Engine.run engine;
  match Smtp.Mailbox.messages (Smtp.Mta.mailboxes mta_b) to_ with
  | [ m ] ->
      let prefix = "from a.com by mx.b.com; t=" in
      Alcotest.(check bool) "stamped" true
        (match Smtp.Message.header m "Received" with
        | Some r ->
            String.length r > String.length prefix
            && String.sub r 0 (String.length prefix) = prefix
        | None -> false)
  | _ -> Alcotest.fail "expected one message"

let test_mta_stamps_message_id () =
  let engine, mta_a, mta_b = make_world () in
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"one";
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"two";
  Sim.Engine.run engine;
  match Smtp.Mailbox.messages (Smtp.Mta.mailboxes mta_b) (addr "bob@b.com") with
  | [ m1; m2 ] ->
      let id m =
        match Smtp.Message.header m "Message-Id" with
        | Some id -> id
        | None -> Alcotest.fail "no id"
      in
      Alcotest.(check bool) "distinct ids" true (id m1 <> id m2);
      Alcotest.(check bool) "id names the origin host" true
        (String.length (id m1) > 0
        && String.sub (id m1) (String.length (id m1) - String.length "mx.a.com>")
             (String.length "mx.a.com>")
           = "mx.a.com>")
  | _ -> Alcotest.fail "expected two messages"

let test_mta_preserves_existing_message_id () =
  let engine, mta_a, mta_b = make_world () in
  let from = addr "alice@a.com" and to_ = addr "bob@b.com" in
  let message =
    Smtp.Message.stamp_message_id
      (Smtp.Message.make_exn ~from ~to_:[ to_ ] ~body:"x" ())
      (mid "<custom@elsewhere>")
  in
  Smtp.Mta.submit mta_a (Smtp.Envelope.v ~sender:from ~recipients:[ to_ ]) message;
  Sim.Engine.run engine;
  match Smtp.Mailbox.messages (Smtp.Mta.mailboxes mta_b) to_ with
  | [ m ] ->
      Alcotest.(check (option string)) "kept" (Some "<custom@elsewhere>")
        (Smtp.Message.header m "Message-Id")
  | _ -> Alcotest.fail "expected one message"

let test_mta_latency_orders_delivery () =
  (* Local delivery (1 ms) completes before remote (>= 10 ms). *)
  let engine, mta_a, mta_b = make_world () in
  let order = ref [] in
  Smtp.Mta.set_on_delivered mta_a (fun ~rcpt:_ _ -> order := "local" :: !order);
  Smtp.Mta.set_on_delivered mta_b (fun ~rcpt:_ _ -> order := "remote" :: !order);
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com") ~body:"r";
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "amy@a.com") ~body:"l";
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "local first" [ "local"; "remote" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Retry-queue edges                                                   *)
(*                                                                     *)
(* The backoff/bounce decision of [retry_transient] is shared between  *)
(* the direct path and the serving layer, so its edges are pinned      *)
(* here once, with explicit seeds, for both consumers.                 *)
(* ------------------------------------------------------------------ *)

let retry_world ~seed () =
  let engine = Sim.Engine.create ~seed () in
  let net = Smtp.Mta.network engine in
  let mta_a = Smtp.Mta.create net ~hostname:"mx.a.com" ~domains:[ "a.com" ] in
  let mta_b = Smtp.Mta.create net ~hostname:"mx.b.com" ~domains:[ "b.com" ] in
  (engine, net, mta_a, mta_b)

let sample_envelope () =
  ( Smtp.Envelope.v ~sender:(addr "alice@a.com") ~recipients:[ addr "bob@b.com" ],
    Smtp.Message.make_exn ~from:(addr "alice@a.com") ~to_:[ addr "bob@b.com" ]
      ~body:"retry me" () )

let test_mta_default_backoff_schedule () =
  (* Attempts 0 and 1 park for 60 s and 120 s; the queue drains once
     both timers fire. *)
  let engine, net, mta_a, mta_b = retry_world ~seed:41 () in
  let envelope, message = sample_envelope () in
  let parked_backoff attempt =
    match
      Smtp.Mta.retry_transient mta_a ~dest_host:(Smtp.Mta.host mta_b) envelope
        message ~attempt ~reason:"tempfail probe"
        ~resubmit:(fun ~attempt:_ -> ())
    with
    | `Parked b -> b
    | `Bounced -> Alcotest.fail "parked attempt bounced"
  in
  Alcotest.(check (list (float 0.))) "60, 120" [ 60.; 120. ]
    (List.map parked_backoff [ 0; 1 ]);
  Alcotest.(check int) "both parked" 2 (Smtp.Mta.retry_queue_length net);
  Sim.Engine.run engine;
  Alcotest.(check int) "queue drains" 0 (Smtp.Mta.retry_queue_length net)

let test_mta_final_attempt_bounces_not_retries () =
  let _engine, net, mta_a, mta_b = retry_world ~seed:29 () in
  let envelope, message = sample_envelope () in
  let dead = ref 0 in
  Smtp.Mta.set_on_bounce mta_a (fun _env _m _reason -> incr dead);
  let decide attempt =
    Smtp.Mta.retry_transient mta_a ~dest_host:(Smtp.Mta.host mta_b) envelope
      message ~attempt ~reason:"450 still busy"
      ~resubmit:(fun ~attempt:_ -> Alcotest.fail "final attempt resubmitted")
  in
  (* Attempt index 2 is the third and last session: one more would
     exceed the three attempts, so the decision must be a bounce —
     parking it would both leak a queue slot and run a 4th attempt. *)
  (match decide 2 with
  | `Bounced -> ()
  | `Parked _ -> Alcotest.fail "final attempt parked instead of bouncing");
  Alcotest.(check int) "nothing parked" 0 (Smtp.Mta.retry_queue_length net);
  Alcotest.(check int) "counted as bounced" 1
    (Smtp.Mta.stats mta_a).Smtp.Mta.bounced;
  Alcotest.(check int) "dead-lettered" 1 !dead

let test_mta_bounce_refund_exactly_once () =
  (* A paid message that exhausts its retries must trigger the refund
     hook once — not once per attempt.  The on_bounce hook is the
     refund mechanism (the ISP layer reverses its ledger debit and the
     recipient-credit leg from it), so each leg is modelled as a
     counter incremented by the hook: three sessions, one bounce, each
     leg reversed exactly once. *)
  let engine, _net, mta_a, mta_b = retry_world ~seed:37 () in
  Smtp.Mta.set_outbound_stamp mta_a (fun _env m ->
      Smtp.Message.mark_payment m ~epennies:1);
  let ledger_reversed = ref 0 and credit_reversed = ref 0 in
  Smtp.Mta.set_on_bounce mta_a (fun _env m _reason ->
      match Smtp.Message.payment m with
      | Some n ->
          ledger_reversed := !ledger_reversed + n;
          incr credit_reversed
      | None -> ());
  Smtp.Mta.set_down mta_b true;
  send_simple mta_a ~from:(addr "alice@a.com") ~to_:(addr "bob@b.com")
    ~body:"paid but doomed";
  Sim.Engine.run engine;
  let s = Smtp.Mta.stats mta_a in
  Alcotest.(check int) "all three attempts ran" 3 s.Smtp.Mta.sessions;
  Alcotest.(check int) "one bounce" 1 s.Smtp.Mta.bounced;
  Alcotest.(check int) "ledger leg reversed once" 1 !ledger_reversed;
  Alcotest.(check int) "credit leg reversed once" 1 !credit_reversed

(* ------------------------------------------------------------------ *)
(* Hand-rendered formatting and the structural delivery fast path      *)
(*                                                                     *)
(* Several hot-path functions replace [Printf.sprintf] (or the full    *)
(* RFC 821 dialogue) with hand-written equivalents.  The properties    *)
(* below pin each replacement to the original, byte for byte, so a     *)
(* future edit cannot silently diverge from the reference rendering.   *)
(* ------------------------------------------------------------------ *)

let stamp_times =
  (* Mix a uniform spread with values engineered to sit on or next to a
     half-millisecond rounding tie, where a naive %.3f replica would
     round the wrong way. *)
  QCheck.Gen.(
    oneof
      [
        float_bound_inclusive 2e9;
        map (fun ms -> float_of_int ms /. 1000.) (int_bound 2_000_000);
        map (fun k -> float_of_int k *. 0.0625) (int_bound 100_000);
        map (fun k -> (float_of_int k +. 0.5) /. 1000.) (int_bound 2_000_000);
        oneofl
          [ 0.; 0.0005; 0.0015; 0.0625; 0.9995; 1.0005; 86399.9995; 1e15; 1e16; infinity ];
      ])

(* In range, the stamp renders exactly as [%.3f] does; out of range
   (an infinite time, or one whose milliseconds overflow), the
   constructor refuses it. *)
let test_received_stamp_matches_sprintf =
  QCheck.Test.make ~name:"received_stamp matches sprintf" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%.20g") stamp_times)
    (fun t ->
      let m =
        Smtp.Message.make_exn ~from:(addr "a@a.com") ~to_:[ addr "b@b.com" ] ~body:"" ()
      in
      match Smtp.Message.stamp_received m ~from:(addr "a@a.com") ~by:(host "mx.b.com") ~at:t with
      | m ->
          t <= 1e15
          && Smtp.Message.header m "Received"
             = Some (Printf.sprintf "from %s by %s; t=%.3f" "a.com" "mx.b.com" t)
      | exception Invalid_argument _ -> not (t >= 0. && t <= 1e15))

(* The Date rendering the typed slot replaced, kept verbatim: the
   bytes of every [Date] header must not move. *)
let width_02d n = (if n < 10 then 1 else 0) + Smtp.Message.decimal_length n

let put_02d b pos width n =
  if n < 10 then begin
    Bytes.unsafe_set b pos '0';
    Smtp.Message.put_decimal b (pos + 1) (width - 1) n
  end
  else Smtp.Message.put_decimal b pos width n

let render_date seconds =
  let day = int_of_float (seconds /. 86400.) in
  let rem = seconds -. (float_of_int day *. 86400.) in
  let h = int_of_float (rem /. 3600.) in
  let m = int_of_float ((rem -. (float_of_int h *. 3600.)) /. 60.) in
  let s = int_of_float (rem -. (float_of_int h *. 3600.) -. (float_of_int m *. 60.)) in
  let dl = Smtp.Message.decimal_length day and hl = width_02d h and ml = width_02d m in
  let sl = width_02d s in
  let b = Bytes.create (dl + hl + ml + sl + 13) in
  Bytes.unsafe_blit_string "Day " 0 b 0 4;
  Smtp.Message.put_decimal b 4 dl day;
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

(* Uniform times, every day/hour/minute boundary with the float just
   below it (where [seconds /. 86400.] may round up to the next day),
   0, and large values up to the 1e15 limit; past it, and below 0,
   [make] refuses the date. *)
let date_seconds =
  QCheck.Gen.(
    let boundary =
      map2
        (fun unit k -> float_of_int k *. unit)
        (oneofl [ 86400.; 3600.; 60.; 1. ])
        (oneof [ int_bound 400; int_bound 11_574_074_074 ])
    in
    oneof
      [
        float_bound_inclusive (200. *. 86400.);
        boundary;
        map Float.pred boundary;
        map Float.succ boundary;
        float_bound_inclusive 1e15;
        oneofl
          [
            0.; Float.pred 86400.; Float.pred 1e15; 1e15; Float.succ 1e15; -0.5;
            Float.pred 0.; infinity; nan;
          ];
      ])

let test_date_header_matches_sprintf =
  QCheck.Test.make ~name:"Date header matches sprintf" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") date_seconds)
    (fun seconds ->
      match
        Smtp.Message.make ~from:(addr "a@a.com") ~to_:[ addr "b@b.com" ] ~date:seconds
          ~body:"" ()
      with
      | Error _ -> not (seconds >= 0. && seconds <= 1e15)
      | Ok m ->
          let day = int_of_float (seconds /. 86400.) in
          let rem = seconds -. (float_of_int day *. 86400.) in
          let h = int_of_float (rem /. 3600.) in
          let mi = int_of_float ((rem -. (float_of_int h *. 3600.)) /. 60.) in
          let s =
            int_of_float (rem -. (float_of_int h *. 3600.) -. (float_of_int mi *. 60.))
          in
          seconds >= 0. && seconds <= 1e15
          && Smtp.Message.header m "Date" = Some (render_date seconds)
          && Smtp.Message.header m "Date"
             = Some (Printf.sprintf "Day %d %02d:%02d:%02d +0000" day h mi s))

(* deliver_direct vs the real dialogue.  The pool mixes two local
   domains with a foreign one so generated envelopes exercise accepts,
   550 rejections, the all-rejected abort and (with a tight cap) the
   554 too-many-recipients path; small [max_message_bytes] values hit
   the 552 size check.  About half the envelopes have one recipient,
   the simulator's every send, and caps -1 and -2 stand for the message's
   own wire size (accepted exactly at the cap) and one byte less (552
   one byte over it). *)
let fastpath_pool =
  [|
    "a@one.example"; "bee@one.example"; "c@two.example"; "d@two.example";
    "x@off.example"; "y@off.example";
  |]

let fastpath_gen =
  QCheck.Gen.(
    let idx = int_bound (Array.length fastpath_pool - 1) in
    let body = string_size ~gen:(oneofl [ 'a'; 'Q'; '.'; '\n'; ' ' ]) (int_bound 60) in
    let cap = oneofl [ 30; 120; 1_000_000; -1; -2 ] in
    let rcpts = frequency [ (2, map (fun i -> [ i ]) idx); (3, list_size (int_range 1 5) idx) ] in
    map
      (fun ((si, ris), (body, cap)) -> (si, ris, body, cap))
      (pair (pair idx rcpts) (pair body cap)))

let fastpath_print (si, ris, body, cap) =
  Printf.sprintf "sender=%s rcpts=[%s] cap=%d body=%S" fastpath_pool.(si)
    (String.concat "; " (List.map (fun i -> fastpath_pool.(i)) ris))
    cap body

let same_rejections a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ra, pa) (rb, pb) -> Smtp.Address.equal ra rb && Smtp.Reply.equal pa pb)
       a b

let test_deliver_direct_matches_dialogue =
  QCheck.Test.make ~name:"deliver_direct matches the full dialogue" ~count:1000
    (QCheck.make ~print:fastpath_print fastpath_gen)
    (fun (si, ris, body, cap) ->
      let sender = addr fastpath_pool.(si) in
      (* Envelope.v forbids duplicate recipients. *)
      let rcpts =
        List.map (fun i -> addr fastpath_pool.(i)) (List.sort_uniq compare ris)
      in
      let envelope = Smtp.Envelope.v ~sender ~recipients:rcpts in
      let message =
        Smtp.Message.make_exn ~from:sender ~to_:rcpts ~subject:"probe" ~date:42.5
          ~body ()
      in
      let message =
        if String.length body mod 2 = 0 then message
        else
          Smtp.Message.stamp_message_id
            (Smtp.Message.mark_payment ~epoch:3 message ~epennies:1)
            (mid "<9@mx.test>")
      in
      (* The dialogue's DATA count is the size plus one. *)
      let wire = Smtp.Message.size_bytes message + 1 in
      let cap = match cap with -1 -> wire | -2 -> wire - 1 | cap -> cap in
      let policy =
        {
          (Smtp.Server.default_policy
             ~local_domains:[ "one.example"; "two.example" ])
          with
          Smtp.Server.max_recipients = 2;
          max_message_bytes = cap;
        }
      in
      let fast = Smtp.Server.deliver_direct ~policy envelope message in
      let server = Smtp.Server.create ~hostname:"mx.test" ~policy in
      let dialogue =
        Smtp.Client.deliver
          (Smtp.Client.of_server server)
          ~hostname:"client.test" envelope message
      in
      match (fast, dialogue) with
      | `Delivered (env, msg, rejected), Ok outcome -> (
          match Smtp.Server.take_received server with
          | [ (env', msg') ] ->
              Smtp.Envelope.equal env env'
              && msg = msg'
              && List.length outcome.Smtp.Client.accepted
                 = List.length (Smtp.Envelope.recipients env)
              && List.for_all2 Smtp.Address.equal outcome.Smtp.Client.accepted
                   (Smtp.Envelope.recipients env)
              && same_rejections outcome.Smtp.Client.rejected rejected
          | _ -> false)
      | `All_rejected rejected, Error (Smtp.Client.All_recipients_rejected rejected')
        ->
          same_rejections rejected rejected'
      | `Size_exceeded, Error (Smtp.Client.Protocol_error { at = "."; reply }) ->
          reply.Smtp.Reply.code = 552
      | _ -> false)

(* [Message.build] against the chain it replaces, kept here as the
   reference: [make], [add_field] per field, [mark_ack], [mark_payment].
   Fields named [Subject], [Date], [From] and [To] (and a lower-case
   [subject]) are drawn so the chain's folding into base slots is
   exercised; dates include the out-of-range ones [make] refuses,
   subjects invalid ones, and stamps negative values. *)
let chain ~from ~to_ ?subject ?date ~fields ?ack ?payment ?epoch ~body () =
  match Smtp.Message.make ~from ~to_ ?subject ?date ~body () with
  | Error e -> Error e
  | Ok m -> (
      let m = List.fold_left Smtp.Message.add_field m fields in
      match
        let m = match ack with Some of_id -> Smtp.Message.mark_ack m ~of_id | None -> m in
        match payment with
        | Some epennies -> Smtp.Message.mark_payment ?epoch m ~epennies
        | None -> m
      with
      | m -> Ok m
      | exception Invalid_argument e -> Error e)

let build_field_pairs =
  [
    ("X-Sim-Label", "ham"); ("List-Id", "list"); ("In-Reply-To", "<1@mx.a>");
    ("Subject", "folded"); ("subject", "lower"); ("Date", "Day 0 01:01:01 +0000");
    ("Date", "Day 1 1:2:3 +0000"); ("From", "x@y.z"); ("To", "p@q.r, s@t.u");
  ]

let build_gen =
  QCheck.Gen.(
    let opt g = frequency [ (1, return None); (2, map Option.some g) ] in
    let subject =
      opt
        (frequency
           [
             (5, oneofl [ ""; "note"; "(no subject)"; "re: note" ]);
             (1, oneofl [ "bad\nsubject"; " lead" ]);
           ])
    in
    let date =
      opt
        (frequency
           [
             (4, float_bound_inclusive 200_000.); (1, oneofl [ 0.; 86399.9999999; 1e15 ]);
             (1, oneofl [ -1.; 1e15 +. 1e3; Float.nan ]);
           ])
    in
    let fields = list_size (int_bound 3) (oneofl build_field_pairs) in
    let ack = opt (frequency [ (4, return "list"); (1, return "bad\r") ]) in
    let stamp = opt (frequency [ (6, oneofl [ 0; 1; 3; 12345 ]); (1, return (-1)) ]) in
    let body = oneofl [ ""; "hello"; "a\nb"; "." ] in
    let to_ = list_size (int_bound 3) (oneofl [ "bob@b.com"; "Dan@d.com" ]) in
    map
      (fun ((to_, subject, date), (fields, ack, payment), (epoch, body)) ->
        (to_, subject, date, fields, ack, payment, epoch, body))
      (triple (triple to_ subject date) (triple fields ack stamp) (pair stamp body)))

let build_print (to_, subject, date, fields, ack, payment, epoch, body) =
  let opt f = function None -> "-" | Some x -> f x in
  Printf.sprintf "to=[%s] subject=%s date=%s fields=[%s] ack=%s payment=%s epoch=%s body=%S"
    (String.concat "; " to_)
    (opt (Printf.sprintf "%S") subject)
    (opt (Printf.sprintf "%h") date)
    (String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%s: %s" n v) fields))
    (opt (Printf.sprintf "%S") ack)
    (opt string_of_int payment) (opt string_of_int epoch) body

let build_lookups =
  [ "From"; "To"; "Subject"; "subject"; "Date"; "X-Sim-Label"; "List-Id"; "In-Reply-To";
    "X-Zmail-Ack"; "X-Zmail-Payment"; "X-Zmail-Epoch"; "Message-Id" ]

let test_build_matches_chain =
  QCheck.Test.make ~name:"build matches make, add_field and the stamps" ~count:3000
    (QCheck.make ~print:build_print build_gen)
    (fun (to_, subject, date, fields, ack, payment, epoch, body) ->
      let from = addr "alice@a.com" and to_ = List.map addr to_ in
      let fields = List.map (fun (n, v) -> Smtp.Message.field_exn n v) fields in
      let reference = chain ~from ~to_ ?subject ?date ~fields ?ack ?payment ?epoch ~body () in
      let built =
        match Option.map Smtp.Message.subject_line subject with
        | Some (Error e) -> Error e
        | checked -> (
            let subject = Option.map Result.get_ok checked in
            match
              Smtp.Message.build ~from ~to_ ?subject ?date ~fields ?ack ?payment ?epoch ~body ()
            with
            | m -> Ok m
            | exception Invalid_argument e -> Error e)
      in
      let bad_subject =
        match subject with Some s -> Result.is_error (Smtp.Message.subject_line s) | None -> false
      in
      match (payment, epoch, reference, built) with
      | None, Some _, _, built -> Result.is_error built
      | _, _, Ok a, Ok b ->
          a = b
          && String.equal (Smtp.Message.to_string a) (Smtp.Message.to_string b)
          && Smtp.Message.size_bytes a = Smtp.Message.size_bytes b
          && List.for_all
               (fun name -> Smtp.Message.header a name = Smtp.Message.header b name)
               build_lookups
      | _, _, Error e, Error e' ->
          (* A subject is refused by [make] and [subject_line] alike. *)
          (not bad_subject) || String.equal e e'
      | _ -> false)

let test_subject_line_refuses_as_make () =
  List.iter
    (fun s ->
      let made =
        Smtp.Message.make ~from:(addr "a@a.com") ~to_:[ addr "b@b.com" ] ~subject:s ~body:"" ()
      in
      match (made, Smtp.Message.subject_line s) with
      | Error e, Error e' -> Alcotest.(check string) (String.escaped s) e e'
      | _ -> Alcotest.failf "%S accepted" s)
    [ "x\r\nX-Zmail-Payment: 5"; " lead"; "trail "; "n\000ul" ];
  match Smtp.Message.subject_line "fine subject" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* The policy sees each recipient once, on the fast path as in the
   dialogue: one-recipient envelopes (accepted, rejected) and longer
   ones, duplicates impossible by [Envelope.v]. *)
let test_deliver_direct_asks_once_per_recipient () =
  let calls = ref 0 in
  let base = Smtp.Server.default_policy ~local_domains:[ "one.example" ] in
  let policy =
    {
      base with
      Smtp.Server.accept_recipient =
        (fun a ->
          incr calls;
          base.Smtp.Server.accept_recipient a);
    }
  in
  let message rcpts =
    Smtp.Message.make_exn ~from:(addr "s@two.example") ~to_:rcpts ~subject:"probe"
      ~date:1. ~body:"x" ()
  in
  let count deliver =
    calls := 0;
    deliver ();
    !calls
  in
  List.iter
    (fun rcpts ->
      let rcpts = List.map addr rcpts in
      let envelope = Smtp.Envelope.v ~sender:(addr "s@two.example") ~recipients:rcpts in
      let message = message rcpts in
      let what = String.concat "," (List.map Smtp.Address.to_string rcpts) in
      Alcotest.(check int) ("deliver_direct " ^ what) (List.length rcpts)
        (count (fun () -> ignore (Smtp.Server.deliver_direct ~policy envelope message)));
      Alcotest.(check int) ("dialogue " ^ what) (List.length rcpts)
        (count (fun () ->
             let server = Smtp.Server.create ~hostname:"mx.test" ~policy in
             ignore
               (Smtp.Client.deliver (Smtp.Client.of_server server) ~hostname:"c.test"
                  envelope message))))
    [
      [ "a@one.example" ];
      [ "x@off.example" ];
      [ "a@one.example"; "x@off.example"; "b@one.example" ];
      [ "x@off.example"; "y@off.example" ];
    ]

let test_decimal_matches_string_of_int =
  QCheck.Test.make ~name:"decimal matches string_of_int" ~count:2000
    QCheck.(
      make ~print:string_of_int
        Gen.(
          oneof
            [
              int;
              int_range (-1000) 1000;
              oneofl
                [ min_int; max_int; min_int + 1; max_int - 1; 0; 1; -1; 9; -9; 10; -10 ];
              (* Each power of ten and its neighbours, either sign. *)
              map3
                (fun k d neg ->
                  let p = int_of_string ("1" ^ String.make k '0') + d in
                  if neg then -p else p)
                (int_bound 18) (int_range (-1) 1) bool;
            ]))
    (fun n ->
      Smtp.Message.decimal n = string_of_int n
      && Smtp.Message.decimal_length n = String.length (string_of_int n))

(* Names, values and bodies from the characters validation and
   [String.trim] treat specially, ['\011'] (not a trim space) included;
   [""] is drawn often.  Names are also drawn from the stamp names in
   mixed case, which [add_header] must refuse. *)
let adversarial_string =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; ' '; ':'; '\n'; '\t'; '\r'; '\012'; '\011'; '\000' ])
      (int_bound 4))

(* The base names too, in any case, with values that are and are not
   exactly what a base slot renders. *)
let adversarial_name =
  QCheck.Gen.(
    frequency
      [
        (3, adversarial_string);
        ( 1,
          oneofl
            [
              "X-Zmail-Payment"; "x-zmail-epoch"; "X-ZMAIL-ACK"; "X-Zmail-Other";
              "Message-Id"; "message-ID"; "Received"; "X-Note";
            ] );
        (1, oneofl [ "From"; "To"; "Subject"; "Date"; "subject"; "DATE" ]);
      ])

let base_values =
  [
    "a@b.com"; "a@B.com"; "Name <a@b.com>"; "c@d.com, e@f.com"; "c@d.com,e@f.com"; "";
    "Day 1 01:01:01 +0000"; "Day 01 01:01:01 +0000"; "Day 0 0:00:00 +0000";
    "Day 3 100:200:255 +0000"; "Day 3 00:256:00 +0000"; "Day 2 23:59:59 +0000 ";
  ]

let extra_value =
  QCheck.Gen.(frequency [ (3, adversarial_string); (2, oneofl base_values) ])

(* Header lines for a parsed leading block: exact renderings of a base
   block and near misses (an uppercase domain, [Name <a@b>], a
   zero-padded day, a missing separator space), stamps and others. *)
let raw_header_line =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          oneofl
            [
              "From: a@b.com"; "From: a@B.com"; "From: Name <a@b.com>";
              "From:  a@b.com\t"; "From: a@b.com, c@d.com";
            ] );
        ( 2,
          oneofl
            [
              "To: c@d.com"; "To: c@d.com, e@f.com"; "To: c@d.com,e@f.com"; "To: ";
              "To:"; "To: c@D.com"; "To: c@d.com, ";
            ] );
        (1, oneofl [ "Subject: hi"; "Subject:"; "subject: lower"; "Subject:  x " ]);
        ( 1,
          oneofl
            [
              "Date: Day 1 01:01:01 +0000"; "Date: Day 01 00:00:00 +0000";
              "Date: Day 0 0:00:00 +0000"; "Date: Day 3 100:200:255 +0000";
              "Date: Day 3 00:256:00 +0000"; "Date:Day 0 00:00:00 +0000";
            ] );
        ( 1,
          oneofl
            [
              "X-Note: v"; "X-Zmail-Payment: 1"; "Message-Id: <1@mx.a.com>";
              "Message-Id: <01@x>"; "Message-Id: <x@y>"; "Message-Id: <5@a;b>";
              "Received: from a.com by mx.b.com; t=1.000";
            ] );
      ])

(* Where the message starts: [make] (a base block with zero to three
   recipients, with or without a subject and a date), or [of_lines]
   over raw header lines, which may or may not form a base block. *)
type origin =
  | Made of int * string option * float option
  | Parsed of string list

let origin_gen =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map3
            (fun n subject date -> Made (n, subject, date))
            (int_bound 3)
            (opt (oneof [ return "probe"; adversarial_string ]))
            (opt (oneofl [ 0.; 3661.25; Float.pred 86400.; 1e15; -1. ])) );
        (1, map (fun lines -> Parsed lines) (list_size (int_range 0 5) raw_header_line));
      ])

let origin_print = function
  | Made (n, subject, date) ->
      Printf.sprintf "Made (%d, %s, %s)" n
        (match subject with None -> "None" | Some s -> Printf.sprintf "%S" s)
        (match date with None -> "None" | Some d -> Printf.sprintf "%h" d)
  | Parsed lines ->
      Printf.sprintf "Parsed [%s]" (String.concat "; " (List.map (Printf.sprintf "%S") lines))

(* A stamp applied after the generic fields.  Arguments the
   constructors refuse are part of the draw. *)
type stamp =
  | Payment of int * int option
  | Ack of string
  | Message_id of string
  | Received of string * float

let stamp_gen =
  QCheck.Gen.(
    let nat = oneof [ int_bound 1000; oneofl [ 0; max_int; -1 ] ] in
    oneof
      [
        map2 (fun p e -> Payment (p, e)) nat (opt nat);
        map (fun v -> Ack v) adversarial_string;
        map
          (fun v -> Message_id v)
          (oneof [ adversarial_string; return "<1@mx.a.com>"; return "<01@x>" ]);
        map2
          (fun by at -> Received (by, at))
          (oneofl [ "mx.b.com"; "b"; ""; "m x"; "a;b" ])
          stamp_times;
      ])

let stamp_print = function
  | Payment (p, e) ->
      Printf.sprintf "Payment (%d, %s)" p
        (match e with None -> "None" | Some e -> string_of_int e)
  | Ack v -> Printf.sprintf "Ack %S" v
  | Message_id v -> Printf.sprintf "Message_id %S" v
  | Received (by, at) -> Printf.sprintf "Received (%S, %.20g)" by at

let adversarial_gen =
  QCheck.Gen.(
    pair origin_gen
      (triple
         (list_size (int_range 0 3) (pair adversarial_name extra_value))
         (list_size (int_range 0 3) stamp_gen)
         adversarial_string))

let adversarial_print (origin, (extra, stamps, body)) =
  Printf.sprintf "origin=%s extra=[%s] stamps=[%s] body=%S" (origin_print origin)
    (String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "(%S, %S)" n v) extra))
    (String.concat "; " (List.map stamp_print stamps))
    body

let apply_stamp m = function
  | Payment (epennies, epoch) -> Smtp.Message.mark_payment ?epoch m ~epennies
  | Ack of_id -> Smtp.Message.mark_ack m ~of_id
  | Message_id id -> Smtp.Message.stamp_message_id m (mid id)
  | Received (by, at) ->
      Smtp.Message.stamp_received m ~from:(addr "alice@a.com") ~by:(host by) ~at

let recipients_pool = [ addr "bob@b.com"; addr "carol@c.com"; addr "Dan@d.com" ]

(* The message [make] or [of_lines], then [add_header] and the stamp
   constructors build from a draw, skipping whatever they refuse. *)
let adversarial_message (origin, (extra, stamps, body)) =
  let made ~to_ ?subject ?date () =
    match Smtp.Message.make ~from:(addr "alice@a.com") ~to_ ?subject ?date ~body () with
    | Ok m -> m
    | Error _ -> Smtp.Message.make_exn ~from:(addr "alice@a.com") ~to_ ~body ()
  in
  let m =
    match origin with
    | Made (n, subject, date) ->
        made ~to_:(List.filteri (fun i _ -> i < n) recipients_pool) ?subject ?date ()
    | Parsed lines -> (
        match Smtp.Message.of_lines (lines @ ("" :: String.split_on_char '\n' body)) with
        | Ok m -> m
        | Error _ -> made ~to_:[] ())
  in
  let m =
    List.fold_left
      (fun m (n, v) ->
        match add_header m n v with Ok m -> m | Error _ -> m)
      m extra
  in
  List.fold_left
    (fun m st -> try apply_stamp m st with Invalid_argument _ -> m)
    m stamps

let adversarial = QCheck.make ~print:adversarial_print adversarial_gen

(* [size_bytes] is kept by the constructors; it must match the length
   of the rendering, which [to_string] writes into one buffer of that
   size and [to_lines] renders line by line. *)
let test_size_bytes_is_rendered_length =
  QCheck.Test.make ~name:"size_bytes equals rendered length" ~count:1000 adversarial
    (fun case ->
      let m = adversarial_message case in
      let joined = String.concat "\n" (to_lines m) in
      Smtp.Message.size_bytes m = String.length joined
      && String.equal (Smtp.Message.to_string m) joined)

(* Validation at construction is what makes the structural fast path
   exact: whatever the constructors accept re-parses to itself, and so
   does whatever [of_lines] reads. *)
let test_wire_round_trip =
  QCheck.Test.make ~name:"of_string (to_string m) = Ok m" ~count:3000 adversarial
    (fun case ->
      let m = adversarial_message case in
      Smtp.Message.of_string (Smtp.Message.to_string m) = Ok m
      && Smtp.Message.of_lines (to_lines m) = Ok m)

let test_constructors_total =
  let any = QCheck.Gen.(oneof [ string; adversarial_string; adversarial_name ]) in
  QCheck.Test.make ~name:"make and add_header never raise" ~count:2000
    (QCheck.make
       ~print:(fun (s, n, v) -> Printf.sprintf "(%S, %S, %S)" s n v)
       QCheck.Gen.(triple any any any))
    (fun (subject, name, value) ->
      let from = addr "a@a.com" and to_ = [ addr "b@b.com" ] in
      let m =
        match Smtp.Message.make ~from ~to_ ~subject ~body:value () with
        | Ok m -> m
        | Error _ -> Smtp.Message.make_exn ~from ~to_ ~body:value ()
      in
      match add_header m name value with Ok _ | Error _ -> true)

(* Words allocated by [n] calls of [f].  The slack covers the boxed
   floats of the measurement itself. *)
let minor_words_of n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. before

(* A message as [World.send_email] and [Mta] build it: one record for
   the base block, the label (a constant list of a constant field), the
   payment and epoch, then the Message-Id and the Received stamp. *)
let world_fields = [ Smtp.Message.field_exn "X-Sim-Label" "ham" ]
let world_subject = Smtp.Message.subject_line_exn "(no subject)"
let world_from = addr "u0@isp0.example"
let world_to = [ addr "u1@isp1.example" ]
let world_mx = host "mx.isp0.example"
let world_by = host "mx.isp1.example"

(* What crosses the wire: everything but the [Received] stamp, which
   the receiving MTA sets after the parse. *)
let world_wire_message () =
  let m =
    Smtp.Message.build ~from:world_from ~to_:world_to ~subject:world_subject
      ~date:(Sys.opaque_identity 3661.25) ~fields:world_fields ~payment:1
      ~epoch:(Sys.opaque_identity 3) ~body:"hello" ()
  in
  Smtp.Message.stamp_message_id m (Smtp.Message.message_id_of_seq 1 world_mx)

let world_shaped_message () =
  Smtp.Message.stamp_received (world_wire_message ()) ~from:world_from ~by:world_by
    ~at:(Sys.opaque_identity 0.026)

(* Building one costs the slot records and nothing else: no header
   text, no validation pass over a constant, no record copy per field
   or per payment stamp.  87 words when the message was built by
   [make], [add_field] and [mark_payment], 58 with [build]; the bound
   is that plus 10%. *)
let world_build_words = 64.

(* One whole [Client.deliver] of the World-shaped wire message against
   a fresh session on a listener built once, as an MTA's are:
   greeting, HELO, MAIL, RCPT, DATA, the body and its dot, QUIT, and
   the message the server stores.  The verbs are matched in place, the
   DATA lines go to one streaming reader, and no Printf or Scanf runs:
   the dialogue measured 866 words before that, 391 after, and 375
   once the 220/221 replies moved to the listener.  The bound keeps
   the same ~10% slack as [world_build_words]. *)
let dialogue_words = 410.

let test_dialogue_allocation () =
  let message = world_wire_message () in
  let envelope = Smtp.Envelope.v ~sender:world_from ~recipients:world_to in
  let policy = Smtp.Server.default_policy ~local_domains:[ "isp1.example" ] in
  let listener = Smtp.Server.listener ~hostname:"mx.isp1.example" ~policy in
  let deliver () =
    let server = Smtp.Server.accept listener in
    match
      Smtp.Client.deliver (Smtp.Client.of_server server) ~hostname:"mx.isp0.example"
        envelope message
    with
    | Ok _ -> Smtp.Server.take_received server
    | Error f -> Alcotest.fail (Smtp.Client.failure_to_string f)
  in
  (match deliver () with
  | [ (_, m) ] -> Alcotest.(check bool) "stored as sent" true (m = message)
  | _ -> Alcotest.fail "expected one message");
  let words = minor_words_of 1000 deliver /. 1000. in
  if words > dialogue_words then
    Alcotest.failf "one dialogue: %.1f words (bound %.0f)" words dialogue_words

let test_readers_and_lookup_allocate_nothing () =
  let m =
    Smtp.Message.make_exn ~from:(addr "alice@a.com") ~to_:[ addr "bob@b.com" ]
      ~subject:"probe" ~date:3661.25 ~body:"hello" ()
  in
  let m = add_header_exn m "X-Last" "z" in
  let m = Smtp.Message.mark_ack m ~of_id:"list" in
  let m = Smtp.Message.mark_payment ~epoch:3 m ~epennies:1 in
  let m = Smtp.Message.stamp_message_id m (mid "<1@mx.a.com>") in
  let m =
    Smtp.Message.stamp_received m ~from:(addr "x@a.com") ~by:(host "mx.b.com") ~at:1.
  in
  let rec header_lines n = function "" :: _ | [] -> n | _ :: rest -> header_lines (n + 1) rest in
  Alcotest.(check int) "ten headers" 10 (header_lines 0 (to_lines m));
  let slack = 64. in
  let none what words =
    if words > slack then Alcotest.failf "%s: %.0f words over 1000 calls" what words
  in
  none "payment" (minor_words_of 1000 (fun () -> Smtp.Message.payment m));
  none "epoch" (minor_words_of 1000 (fun () -> Smtp.Message.epoch m));
  none "ack_of" (minor_words_of 1000 (fun () -> Smtp.Message.ack_of m));
  none "message_id" (minor_words_of 1000 (fun () -> Smtp.Message.message_id m));
  none "from" (minor_words_of 1000 (fun () -> Smtp.Message.from m));
  none "subject" (minor_words_of 1000 (fun () -> Smtp.Message.subject m));
  (* A miss scans the generic fields and allocates nothing; a hit
     returns the option its field was built with. *)
  none "header (miss)" (minor_words_of 1000 (fun () -> Smtp.Message.header m "x-absent"));
  none "header (hit)" (minor_words_of 1000 (fun () -> Smtp.Message.header m "x-last"));
  let w = world_shaped_message () in
  Alcotest.(check (option string)) "label" (Some "ham") (Smtp.Message.header w "X-Sim-Label");
  none "size_bytes" (minor_words_of 1000 (fun () -> Smtp.Message.size_bytes w));
  none "header X-Sim-Label"
    (minor_words_of 1000 (fun () -> Smtp.Message.header w "X-Sim-Label"));
  none "header List-Id" (minor_words_of 1000 (fun () -> Smtp.Message.header w "List-Id"));
  let build = minor_words_of 1000 world_shaped_message in
  if build > (world_build_words *. 1000.) +. slack then
    Alcotest.failf "building a World-shaped message: %.1f words each (bound %.0f)"
      (build /. 1000.) world_build_words

(* The bytes of a paid, a free, a list and an acknowledgment message
   as the simulator sends them, pinned from the rendering of the
   untyped header list the stamps replaced: the wire form must not
   move. *)
let test_world_messages_render_as_before () =
  let inbox w ~isp ~user =
    List.map Smtp.Message.to_string
      (Smtp.Mailbox.messages
         (Smtp.Mta.mailboxes (Zmail.World.mta w isp))
         (Zmail.World.address w ~isp ~user))
  in
  let pin what expected got = Alcotest.(check (list string)) what [ expected ] got in
  let w = Zmail.World.create (Zmail.World.default_config ~n_isps:2 ~users_per_isp:3) in
  ignore
    (Zmail.World.send_email w ~from:(0, 0) ~to_:(1, 1) ~subject:"hi"
       ~in_reply_to:"<7@mx.example>" ~body:"two\nlines" ());
  Zmail.World.run_until_quiet w;
  pin "paid"
    "From: u0@isp0.example\nTo: u1@isp1.example\nSubject: hi\nDate: Day 0 00:00:00 +0000\nIn-Reply-To: <7@mx.example>\nX-Sim-Label: ham\nX-Zmail-Payment: 1\nX-Zmail-Epoch: 0\nMessage-Id: <1@mx.isp0.example>\nReceived: from isp0.example by mx.isp1.example; t=0.026\n\ntwo\nlines"
    (inbox w ~isp:1 ~user:1);
  let cfg = Zmail.World.default_config ~n_isps:3 ~users_per_isp:3 in
  let w =
    Zmail.World.create { cfg with Zmail.World.compliant = [| true; true; false |] }
  in
  ignore (Zmail.World.send_email w ~from:(0, 0) ~to_:(2, 0) ~spam:true ());
  Zmail.World.run_until_quiet w;
  pin "free"
    "From: u0@isp0.example\nTo: u0@isp2.example\nSubject: (no subject)\nDate: Day 0 00:00:00 +0000\nX-Sim-Label: spam\nMessage-Id: <1@mx.isp0.example>\nReceived: from isp0.example by mx.isp2.example; t=0.026\n\nhello"
    (inbox w ~isp:2 ~user:0);
  let w = Zmail.World.create (Zmail.World.default_config ~n_isps:2 ~users_per_isp:3) in
  let sent = ref [] in
  Smtp.Mta.set_outbound_stamp (Zmail.World.mta w 1) (fun _ m ->
      sent := Smtp.Message.to_string m :: !sent;
      m);
  let ls = Zmail.World.host_list w ~isp:0 ~user:0 ~list_id:"dev-list" in
  Zmail.Listserv.subscribe ls (Zmail.World.address w ~isp:1 ~user:1);
  ignore (Zmail.World.post_to_list w ls ~body:"release");
  Zmail.World.run_until_quiet w;
  pin "list"
    "From: u0@isp0.example\nTo: u1@isp1.example\nSubject: [dev-list] post\nDate: Day 0 00:00:00 +0000\nList-Id: dev-list\nX-Zmail-Payment: 1\nX-Zmail-Epoch: 0\nMessage-Id: <1@mx.isp0.example>\nReceived: from isp0.example by mx.isp1.example; t=0.026\n\nrelease"
    (inbox w ~isp:1 ~user:1);
  pin "ack"
    "From: u1@isp1.example\nTo: u0@isp0.example\nSubject: ack\nDate: Day 0 00:00:00 +0000\nX-Zmail-Ack: dev-list\nX-Zmail-Payment: 1\nX-Zmail-Epoch: 0\nMessage-Id: <1@mx.isp1.example>\n"
    !sent

(* ------------------------------------------------------------------ *)
(* Reference parsers                                                   *)
(* ------------------------------------------------------------------ *)

(* [Command.of_line] as it was before it matched verbs in place: trim,
   upper-case a copy, and compare prefixes by [String.sub].  Kept
   verbatim as the reference the in-place parser must equal, errors
   included. *)
module Reference_command = struct
  open Smtp.Command

  let angle_path s =
    (* Accept "<addr>" or bare "addr". *)
    let s = String.trim s in
    let stripped =
      if String.length s >= 2 && s.[0] = '<' && s.[String.length s - 1] = '>' then
        String.sub s 1 (String.length s - 2)
      else s
    in
    Smtp.Address.of_string stripped

  let of_line line =
    let line = String.trim line in
    let upper = String.uppercase_ascii line in
    let starts prefix = String.length upper >= String.length prefix
                        && String.sub upper 0 (String.length prefix) = prefix in
    let rest_after prefix = String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)) in
    if upper = "DATA" then Ok Data
    else if upper = "RSET" then Ok Rset
    else if upper = "NOOP" then Ok Noop
    else if upper = "QUIT" then Ok Quit
    else if starts "HELO " then
      let h = rest_after "HELO " in
      if h = "" then Error "HELO requires a hostname" else Ok (Helo h)
    else if starts "EHLO " then
      (* Treated as HELO: the simulator offers no extensions. *)
      let h = rest_after "EHLO " in
      if h = "" then Error "EHLO requires a hostname" else Ok (Helo h)
    else if starts "MAIL FROM:" then
      Result.map (fun a -> Mail_from a) (angle_path (rest_after "MAIL FROM:"))
    else if starts "RCPT TO:" then
      Result.map (fun a -> Rcpt_to a) (angle_path (rest_after "RCPT TO:"))
    else if starts "VRFY " then Ok (Vrfy (rest_after "VRFY "))
    else Error (Printf.sprintf "unrecognized command: %S" line)
end

(* Verbs in random case with near misses, padded with spaces and tabs,
   and arguments that are and are not paths. *)
let command_line_gen =
  QCheck.Gen.(
    let verb =
      oneofl
        [
          "HELO "; "EHLO "; "MAIL FROM:"; "RCPT TO:"; "DATA"; "RSET"; "NOOP"; "QUIT";
          "VRFY "; "HELO"; "MAIL FROM"; "MAIL FROM: "; "RCPT TO :"; "RCPT"; "DAT"; "DATAX";
          "QUIT "; "FOO"; "";
        ]
    in
    let mixed_case s =
      map
        (fun flips ->
          String.mapi
            (fun i c ->
              if List.nth flips (i mod List.length flips) then Char.lowercase_ascii c else c)
            s)
        (list_size (int_range 1 8) bool)
    in
    let pad = string_size ~gen:(oneofl [ ' '; '\t'; '\r'; '\012'; '\011' ]) (int_bound 2) in
    let arg =
      frequency
        [
          ( 3,
            oneofl
              [
                "<a@b.com>"; "<>"; "a@b.com"; "<A@B.COM>"; " <a@b.com> "; "<a@b.com>x";
                "< a@b.com>"; "<a@b.com"; "a@b.com>"; "a@@b.com"; "@b.com"; "a@"; "<a@b@c>";
                "mx.example"; "Mx.Example"; "<u0@isp0.example>"; "a b"; "";
              ] );
          (1, string_size ~gen:(oneofl [ 'a'; '@'; '<'; '>'; ' '; '.'; 'Z'; '\t' ]) (int_bound 6));
        ]
    in
    map
      (fun ((lead, v), (a, trail)) -> lead ^ v ^ a ^ trail)
      (pair (pair pad (verb >>= mixed_case)) (pair arg pad)))

let test_command_of_line_matches_reference =
  QCheck.Test.make ~name:"of_line matches the trim-and-copy reference" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") command_line_gen)
    (fun line -> Smtp.Command.of_line line = Reference_command.of_line line)

(* [Message.parse_received] as it was before it read in place: scan
   with [Scanf], then keep the stamp only if rendering it gives the
   value back. *)
type reference_received = { from_domain : string; by : string; ms : int }

let reference_parse_received s =
  match
    Scanf.sscanf s "from %s@ by %s@; t=%d.%d%!" (fun from_domain by secs f ->
        { from_domain; by; ms = (secs * 1000) + f })
  with
  | r
    when r.ms >= 0
         && Result.is_ok (Smtp.Message.host r.by)
         && String.equal
              (Printf.sprintf "from %s by %s; t=%d.%03d" r.from_domain r.by (r.ms / 1000)
                 (r.ms mod 1000))
              s ->
      Some r
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* Renderings and mutations of them: signs, leading zeros, a 2- or
   4-digit fraction, an empty domain or host, runs of spaces and tabs,
   [';'] in the host, underscores and overflowing seconds. *)
let received_value_gen =
  QCheck.Gen.(
    let part = string_size ~gen:(oneofl [ 'a'; 'b'; 'y'; '.'; ';'; ' '; '\t'; '-' ]) (int_bound 5) in
    let secs =
      oneofl [ "0"; "1"; "26"; "3661"; "01"; "+1"; "-1"; "-0"; "1_0"; "9223372036854775"; "4611686018427387"; "99999999999999999999" ]
    in
    let frac = oneofl [ "000"; "026"; "500"; "999"; "00"; "5"; "0000"; "-01"; "+01"; "1_0"; "" ] in
    let rendering =
      map
        (fun ((d, b), (s, f)) -> Printf.sprintf "from %s by %s; t=%s.%s" d b s f)
        (pair
           (pair (oneof [ oneofl [ "isp0.example"; "a;b"; "" ]; part ]) (oneof [ oneofl [ "mx.isp1.example"; ""; "m x" ]; part ]))
           (pair secs frac))
    in
    let tricky = oneofl [ ' '; '\t'; ';'; '.'; '0'; '+'; '-'; '_'; 'b'; 'y'; 't'; '='; 'f' ] in
    let mutate s =
      if s = "" then return s
      else
        map3
          (fun kind i c ->
            let i = i mod String.length s in
            match kind with
            | 0 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)
            | 1 -> String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
            | _ -> String.mapi (fun j x -> if j = i then c else x) s)
          (int_bound 2) nat tricky
    in
    let rec mutations n s = if n = 0 then return s else mutate s >>= mutations (n - 1) in
    pair (int_bound 2) rendering >>= fun (n, s) -> mutations n s)

(* A value reaches the parser as a header value: trimmed, and never
   holding CR, LF or NUL, so the reference sees what the reader sees. *)
let test_received_matches_scanf =
  QCheck.Test.make ~name:"Received reader matches the Scanf reference" ~count:4000
    (QCheck.make ~print:(Printf.sprintf "%S") received_value_gen)
    (fun v ->
      let v = String.trim v in
      let expected = reference_parse_received v in
      match (Smtp.Message.of_lines [ "Received: " ^ v ], expected) with
      | Ok m, Some _ -> Smtp.Message.header m "Received" = Some v
      | Error _, None -> true
      | Ok _, None | Error _, Some _ -> false)

(* The Scanf reference is not vacuous: these it reads, these it does
   not, and the reader agrees. *)
let test_received_reference_cases () =
  List.iter
    (fun (v, accepted) ->
      Alcotest.(check bool) ("reference " ^ v) accepted (reference_parse_received v <> None);
      Alcotest.(check bool) ("reader " ^ v) accepted
        (Result.is_ok (Smtp.Message.of_lines [ "Received: " ^ v ])))
    [
      ("from a.com by mx.b.com; t=1.000", true);
      ("from a.com by mx.b.com; t=0.026", true);
      (* A host [Message.host] refuses (spaces, empty) is not a stamp:
         the DATA text falls back to an opaque body. *)
      ("from a;b by m x; t=12.500", false);
      ("from a by ; t=1.000", false);
      ("from  by b; t=1.000", false);
      ("from a by  b; t=1.000", false);
      ("from a by b; t=01.000", false);
      ("from a by b; t=1.00", false);
      ("from a by b; t=1.0000", false);
      ("from a by b; t=+1.000", false);
      ("from a by b; t=1.-01", false);
      ("from a by b;c; t=1.000", false);
      ("from a by b; t=99999999999999999.000", false);
    ]

(* ROADMAP item 9's property: a DATA payload fed line by line through
   the server, dot-stuffed as a client sends it, is stored as exactly
   what [of_lines] reads from it, and a payload [of_lines] refuses is
   kept whole as an opaque body. *)
let data_line =
  QCheck.Gen.(
    frequency
      [
        (4, raw_header_line);
        (1, map (fun s -> String.map (fun c -> if c = '\n' then ' ' else c) s) adversarial_string);
        (1, oneofl [ "."; ".."; ".X-Note: v"; "..x"; ". "; "X-Zmail-Payment: 01"; "X-Zmail-Epoch: 2" ]);
      ])

let data_payload_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun case -> to_lines (adversarial_message case)) adversarial_gen;
        map2
          (fun header body -> header @ body)
          (list_size (int_range 0 6) data_line)
          (oneof [ return []; map (fun b -> "" :: b) (list_size (int_range 0 4) data_line) ]);
      ])

let test_data_payload_matches_of_lines =
  QCheck.Test.make ~name:"server DATA reader matches of_lines" ~count:2000
    (QCheck.make
       ~print:(fun ls -> String.concat "; " (List.map (Printf.sprintf "%S") ls))
       data_payload_gen)
    (fun lines ->
      let sender = addr "a@a.com" and rcpt = addr "b@b.com" in
      let s = make_server () in
      List.iter
        (fun l -> ignore (Smtp.Server.on_line s l))
        ([ "HELO mx.a.com"; "MAIL FROM:<a@a.com>"; "RCPT TO:<b@b.com>"; "DATA" ]
        @ List.map (fun l -> if l <> "" && l.[0] = '.' then "." ^ l else l) lines
        @ [ "." ]);
      let expected =
        match Smtp.Message.of_lines lines with
        | Ok m -> m
        | Error _ ->
            Smtp.Message.make_exn ~from:sender ~to_:[ rcpt ] ~body:(String.concat "\n" lines) ()
      in
      match Smtp.Server.take_received s with
      | [ (env, m) ] ->
          m = expected
          && Smtp.Envelope.equal env (Smtp.Envelope.v ~sender ~recipients:[ rcpt ])
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Wire transcript golden                                              *)
(* ------------------------------------------------------------------ *)

(* Every line the client puts on the wire and every reply the server
   returns, for [Client.deliver] against a [Server.t] and for a
   [Serve.Session] run on an engine, plus what the server stored.  The
   wire text is the protocol; it must not move.  To regenerate after an
   intentional change:

     ZMAIL_BLESS_GOLDEN=$PWD/test/golden dune exec test/test_smtp.exe *)
let transcript_golden = "golden/smtp_transcript.txt"

(* Long lines are pinned by length and digest. *)
let show_line l =
  if String.length l <= 100 then l
  else Printf.sprintf "<%d bytes, md5 %s>" (String.length l) (Digest.to_hex (Digest.string l))

(* A transport that passes everything through and records it, one
   entry per line; a run of identical entries is written once with
   its count. *)
let recording (log : string list ref) (t : Smtp.Client.transport) =
  let note e = log := e :: !log in
  {
    Smtp.Client.greeting =
      (fun () ->
        let r = t.Smtp.Client.greeting () in
        note ("S: " ^ Smtp.Reply.to_line r);
        r);
    exchange =
      (fun line ->
        note ("C: " ^ show_line line);
        let r = t.Smtp.Client.exchange line in
        Option.iter (fun r -> note ("S: " ^ Smtp.Reply.to_line r)) r;
        r);
  }

let rec write_runs buf = function
  | [] -> ()
  | e :: rest ->
      let rec run n = function e' :: rest when String.equal e e' -> run (n + 1) rest | l -> (n, l) in
      let n, rest = run 1 rest in
      Buffer.add_string buf e;
      if n > 1 then Printf.bprintf buf "  [x%d]" n;
      Buffer.add_char buf '\n';
      write_runs buf rest

let write_stored buf what message =
  Printf.bprintf buf "%s (%d bytes):\n" what (Smtp.Message.size_bytes message);
  write_runs buf
    (List.map
       (fun l -> "| " ^ show_line l)
       (String.split_on_char '\n' (Smtp.Message.to_string message)))

let transcript_max_bytes = 1024 * 1024
let isp0 = addr "u0@isp0.example"
let isp1 = addr "u1@isp1.example"

let transcript_message ?(to_ = [ isp1 ]) body =
  Smtp.Message.make_exn ~from:isp0 ~to_ ~subject:"probe" ~date:61.5 ~body ()

(* A message whose dialogue measures [transcript_max_bytes + over]
   bytes, the server's wire measure (size_bytes + 1). *)
let sized_message over =
  let base = Smtp.Message.size_bytes (transcript_message "") in
  let len = transcript_max_bytes - 2 - base + over in
  let line = String.make 999 'x' in
  let body = String.concat "\n" (List.init (len / 1000) (fun _ -> line)) in
  let body = body ^ String.make (len - String.length body) 'y' in
  let m = transcript_message body in
  assert (Smtp.Message.size_bytes m + 1 = transcript_max_bytes + over);
  m

let list_ack () =
  let m =
    Smtp.Message.make_exn ~from:isp0 ~to_:[ isp1 ] ~subject:"ack" ~date:0. ~body:"" ()
  in
  Smtp.Message.stamp_message_id
    (Smtp.Message.mark_payment ~epoch:0 (Smtp.Message.mark_ack m ~of_id:"dev-list") ~epennies:1)
    (Smtp.Message.message_id_of_seq 7 world_mx)

let transcript_cases () =
  let one = [ isp1 ] in
  [
    ("world paid", one, world_wire_message ());
    ("list ack", one, list_ack ());
    ("dot lines", one, transcript_message ".lead\n..double\nplain\n.\n");
    ("empty body", one, transcript_message "");
    ( "two recipients, one rejected",
      [ isp1; addr "eve@off.example" ],
      transcript_message ~to_:[ isp1; addr "eve@off.example" ] "hi both" );
    ("at max_message_bytes", one, sized_message 0);
    ("one byte over (552)", one, sized_message 1);
  ]

(* DATA payloads only a hand-written client sends: stamps forged in the
   header block, which the server must keep as an opaque body. *)
let raw_cases =
  [
    ( "forged X-Zmail-Payment",
      [ "From: u0@isp0.example"; "To: u1@isp1.example"; "X-Zmail-Payment: 01"; ""; "body" ] );
    ( "repeated X-Zmail-Payment",
      [
        "From: u0@isp0.example"; "X-Zmail-Payment: 1"; "To: u1@isp1.example";
        "X-Zmail-Payment: 100"; ""; "..body";
      ] );
  ]

let transcript_server () =
  let policy =
    {
      (Smtp.Server.default_policy ~local_domains:[ "isp1.example" ]) with
      Smtp.Server.max_message_bytes = transcript_max_bytes;
    }
  in
  Smtp.Server.create ~hostname:"mx.isp1.example" ~policy

let client_transcript buf (name, rcpts, message) =
  let log = ref [] in
  let server = transcript_server () in
  let envelope = Smtp.Envelope.v ~sender:isp0 ~recipients:rcpts in
  let result =
    Smtp.Client.deliver (recording log (Smtp.Client.of_server server))
      ~hostname:"mx.isp0.example" envelope message
  in
  Printf.bprintf buf "== %s / Client.deliver\n" name;
  write_runs buf (List.rev !log);
  (match result with
  | Ok { accepted; rejected } ->
      Printf.bprintf buf "outcome: ok accepted [%s] rejected [%s]\n"
        (String.concat "; " (List.map Smtp.Address.to_string accepted))
        (String.concat "; "
           (List.map
              (fun (a, r) -> Smtp.Address.to_string a ^ " " ^ Smtp.Reply.to_line r)
              rejected))
  | Error f -> Printf.bprintf buf "outcome: %s\n" (Smtp.Client.failure_to_string f));
  List.iter
    (fun (env, m) ->
      write_stored buf (Format.asprintf "stored %a" Smtp.Envelope.pp env) m)
    (Smtp.Server.take_received server)

let session_transcript buf (name, rcpts, message) =
  let log = ref [] in
  let engine = Sim.Engine.create ~seed:7 () in
  let net = Smtp.Mta.network engine in
  let src = Smtp.Mta.create net ~hostname:"mx.isp0.example" ~domains:[ "isp0.example" ] in
  let dest = Smtp.Mta.create net ~hostname:"mx.isp1.example" ~domains:[ "isp1.example" ] in
  let outcome = ref None in
  Serve.Session.start ~tap:(recording log) ~engine ~rng:(Sim.Rng.create 7)
    ~rtt:(fun _ -> 0.05) ~bytes_per_sec:1e6 ~src ~dest
    (Smtp.Envelope.v ~sender:isp0 ~recipients:rcpts)
    message
    ~on_close:(fun o -> outcome := Some o);
  Sim.Engine.run engine;
  Printf.bprintf buf "== %s / Serve.Session\n" name;
  write_runs buf (List.rev !log);
  Printf.bprintf buf "outcome: %s at t=%.3f\n"
    (match !outcome with
    | Some (`Delivered n) -> Printf.sprintf "delivered %d" n
    | Some (`Transient r) -> "transient " ^ r
    | Some (`Permanent r) -> "permanent " ^ r
    | None -> "never closed")
    (Sim.Engine.now engine);
  List.iter
    (fun m -> write_stored buf "mailbox u1@isp1.example" m)
    (Smtp.Mailbox.messages (Smtp.Mta.mailboxes dest) isp1)

let raw_transcript buf (name, data) =
  let log = ref [] in
  let server = transcript_server () in
  let t = recording log (Smtp.Client.of_server server) in
  ignore (t.Smtp.Client.greeting ());
  List.iter
    (fun l -> ignore (t.Smtp.Client.exchange l))
    ([ "HELO mx.isp0.example"; "MAIL FROM:<u0@isp0.example>"; "RCPT TO:<u1@isp1.example>"; "DATA" ]
    @ data @ [ "."; "QUIT" ]);
  Printf.bprintf buf "== %s / raw DATA\n" name;
  write_runs buf (List.rev !log);
  List.iter
    (fun (env, m) ->
      write_stored buf (Format.asprintf "stored %a" Smtp.Envelope.pp env) m)
    (Smtp.Server.take_received server)

let test_transcript_golden () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun case ->
      client_transcript buf case;
      session_transcript buf case)
    (transcript_cases ());
  List.iter (raw_transcript buf) raw_cases;
  let live = Buffer.contents buf in
  match Sys.getenv_opt "ZMAIL_BLESS_GOLDEN" with
  | Some dir ->
      let out = Filename.concat dir (Filename.basename transcript_golden) in
      Out_channel.with_open_bin out (fun oc -> output_string oc live);
      Printf.eprintf "blessed %s\n%!" out
  | None ->
      let golden = In_channel.with_open_bin transcript_golden In_channel.input_all in
      Alcotest.(check string)
        "SMTP transcript matches the golden (regenerate per the comment above \
         [transcript_golden] if the change is intentional)"
        golden live

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "smtp"
    [
      ( "address",
        Alcotest.test_case "parse" `Quick test_address_parse
        :: Alcotest.test_case "invalid" `Quick test_address_invalid
        :: Alcotest.test_case "equal" `Quick test_address_equal
        :: qcheck [ address_roundtrip ] );
      ( "message",
        [
          Alcotest.test_case "headers" `Quick test_message_headers;
          Alcotest.test_case "roundtrip" `Quick test_message_roundtrip;
          Alcotest.test_case "empty body" `Quick test_message_empty_body;
          Alcotest.test_case "malformed" `Quick test_message_malformed;
          Alcotest.test_case "zmail headers" `Quick test_message_zmail_headers;
          Alcotest.test_case "header injection" `Quick test_message_header_injection;
          Alcotest.test_case "canonical stamps" `Quick test_message_canonical_stamps;
        ] );
      ( "codec",
        [
          Alcotest.test_case "command roundtrip" `Quick test_command_roundtrip;
          Alcotest.test_case "case-insensitive" `Quick test_command_case_insensitive;
          Alcotest.test_case "bare path" `Quick test_command_bare_path;
          Alcotest.test_case "invalid commands" `Quick test_command_invalid;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
          Alcotest.test_case "reply classes" `Quick test_reply_classes;
        ] );
      ( "server",
        [
          Alcotest.test_case "happy path" `Quick test_server_happy_path;
          Alcotest.test_case "bad sequences" `Quick test_server_bad_sequences;
          Alcotest.test_case "foreign domain" `Quick test_server_rejects_foreign_domain;
          Alcotest.test_case "rset" `Quick test_server_rset;
          Alcotest.test_case "quit" `Quick test_server_quit;
          Alcotest.test_case "syntax error" `Quick test_server_syntax_error;
          Alcotest.test_case "dot stuffing" `Quick test_server_dot_stuffing;
          Alcotest.test_case "duplicate rcpt" `Quick test_server_duplicate_rcpt_idempotent;
          Alcotest.test_case "max recipients" `Quick test_server_max_recipients;
          Alcotest.test_case "max message size" `Quick test_server_max_message_size;
        ] );
      ( "client",
        [
          Alcotest.test_case "delivery" `Quick test_client_delivery;
          Alcotest.test_case "all rejected" `Quick test_client_all_rejected;
          Alcotest.test_case "transcript golden" `Quick test_transcript_golden;
        ] );
      ( "fastpath",
        qcheck
          [
            test_received_stamp_matches_sprintf;
            test_date_header_matches_sprintf;
            test_deliver_direct_matches_dialogue;
            test_build_matches_chain;
            test_decimal_matches_string_of_int;
            test_size_bytes_is_rendered_length;
            test_wire_round_trip;
            test_constructors_total;
            test_command_of_line_matches_reference;
            test_received_matches_scanf;
            test_data_payload_matches_of_lines;
          ]
        @ [
            Alcotest.test_case "stamp readers and lookup allocate nothing" `Quick
              test_readers_and_lookup_allocate_nothing;
            Alcotest.test_case "World messages render as before" `Quick
              test_world_messages_render_as_before;
            Alcotest.test_case "Received reference cases" `Quick
              test_received_reference_cases;
            Alcotest.test_case "one dialogue's allocation" `Quick test_dialogue_allocation;
            Alcotest.test_case "deliver_direct asks once per recipient" `Quick
              test_deliver_direct_asks_once_per_recipient;
            Alcotest.test_case "subject_line refuses as make does" `Quick
              test_subject_line_refuses_as_make;
          ] );
      ("dns", [ Alcotest.test_case "registry" `Quick test_dns ]);
      ("mailbox", [ Alcotest.test_case "store" `Quick test_mailbox ]);
      ( "mta",
        [
          Alcotest.test_case "remote delivery" `Quick test_mta_remote_delivery;
          Alcotest.test_case "local delivery" `Quick test_mta_local_delivery;
          Alcotest.test_case "multi-domain split" `Quick test_mta_multi_domain_split;
          Alcotest.test_case "no MX bounces" `Quick test_mta_no_mx_bounces;
          Alcotest.test_case "down host bounces" `Quick
            test_mta_down_host_retries_then_bounces;
          Alcotest.test_case "down host recovers" `Quick test_mta_down_host_recovers;
          Alcotest.test_case "inbound filter" `Quick test_mta_inbound_filter;
          Alcotest.test_case "outbound stamp" `Quick test_mta_outbound_stamp;
          Alcotest.test_case "on_delivered hook" `Quick test_mta_on_delivered_hook;
          Alcotest.test_case "duplicate domain" `Quick test_mta_duplicate_domain_rejected;
          Alcotest.test_case "invalid hostname" `Quick test_mta_invalid_hostname_rejected;
          Alcotest.test_case "latency ordering" `Quick test_mta_latency_orders_delivery;
          Alcotest.test_case "message-id stamping" `Quick test_mta_stamps_message_id;
          Alcotest.test_case "message-id preserved" `Quick
            test_mta_preserves_existing_message_id;
        ] );
      ( "retry",
        [
          Alcotest.test_case "default backoff schedule" `Quick
            test_mta_default_backoff_schedule;
          Alcotest.test_case "final attempt bounces" `Quick
            test_mta_final_attempt_bounces_not_retries;
          Alcotest.test_case "bounce refund once" `Quick
            test_mta_bounce_refund_exactly_once;
        ] );
    ]
