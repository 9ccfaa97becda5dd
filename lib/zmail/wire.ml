type payload =
  | Buy of { amount : Epenny.amount; nonce : int64 }
  | Buy_reply of { nonce : int64; accepted : bool }
  | Sell of { amount : Epenny.amount; nonce : int64 }
  | Sell_reply of { nonce : int64 }
  | Audit_request of { seq : int }
  | Audit_reply of { isp : int; seq : int; credit : (int * int) array }
      (* [credit] is the sparse reported row: (peer, count) sorted by
         peer.  Honest encoders emit the canonical non-zero form
         ([Audit.Row.pairs]); tampered rows may carry explicit zeros,
         which the verifier treats as no claim. *)
  | Transfer of { from_bank : int; to_bank : int; amount : Epenny.amount; xfer_id : int }
  | Transfer_ack of { xfer_id : int }

(* [encode] writes each payload into one exactly sized buffer with the
   digit writer of [Smtp.Message.decimal].  The bytes are those of the
   [Printf] formats the wire was defined with ("buy %d %Ld",
   "buyreply %Ld %b", "reply %d %d p:v,p:v", ...), which seal MACs and
   bank signatures cover, so they must not move. *)
let int_length = Smtp.Message.decimal_length

(* Each [put_*] writes at [pos] and returns the position after. *)
let put_int b pos n =
  let len = int_length n in
  Smtp.Message.put_decimal b pos len n;
  pos + len

(* An int64 outside the int range renders as its quotient by 10 (in
   range, non-zero, same sign) followed by its last digit. *)
let fits_int n = Int64.equal (Int64.of_int (Int64.to_int n)) n

let int64_length n =
  if fits_int n then int_length (Int64.to_int n)
  else int_length (Int64.to_int (Int64.div n 10L)) + 1

let put_int64 b pos n =
  if fits_int n then put_int b pos (Int64.to_int n)
  else begin
    let pos = put_int b pos (Int64.to_int (Int64.div n 10L)) in
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 + abs (Int64.to_int (Int64.rem n 10L))));
    pos + 1
  end

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_char b pos c =
  Bytes.unsafe_set b pos c;
  pos + 1

let finish b pos =
  assert (pos = Bytes.length b);
  Bytes.unsafe_to_string b

(* [tag] carries its trailing space. *)
let tag_int tag n =
  let b = Bytes.create (String.length tag + int_length n) in
  finish b (put_int b (put_string b 0 tag) n)

let tag_int64_word tag x word =
  let b = Bytes.create (String.length tag + int64_length x + String.length word) in
  let pos = put_int64 b (put_string b 0 tag) x in
  finish b (put_string b pos word)

let tag_int_int64 tag n x =
  let b = Bytes.create (String.length tag + int_length n + 1 + int64_length x) in
  let pos = put_int b (put_string b 0 tag) n in
  finish b (put_int64 b (put_char b pos ' ') x)

let encode = function
  | Buy { amount; nonce } -> tag_int_int64 "buy " amount nonce
  | Buy_reply { nonce; accepted } ->
      tag_int64_word "buyreply " nonce (if accepted then " true" else " false")
  | Sell { amount; nonce } -> tag_int_int64 "sell " amount nonce
  | Sell_reply { nonce } -> tag_int64_word "sellreply " nonce ""
  | Audit_request { seq } -> tag_int "request " seq
  | Audit_reply { isp; seq; credit } ->
      (* "-" marks an empty row: the cells field must stay non-empty
         for the space-split decoder to see four words. *)
      let n = Array.length credit in
      let len = ref (6 + int_length isp + 1 + int_length seq + 1) in
      len := !len + if n = 0 then 1 else n - 1;
      for i = 0 to n - 1 do
        let p, v = credit.(i) in
        len := !len + int_length p + 1 + int_length v
      done;
      let b = Bytes.create !len in
      let pos = put_int b (put_string b 0 "reply ") isp in
      let pos = put_char b (put_int b (put_char b pos ' ') seq) ' ' in
      if n = 0 then finish b (put_char b pos '-')
      else begin
        let pos = ref pos in
        for i = 0 to n - 1 do
          let p, v = credit.(i) in
          if i > 0 then pos := put_char b !pos ',';
          pos := put_int b (put_char b (put_int b !pos p) ':') v
        done;
        finish b !pos
      end
  | Transfer { from_bank; to_bank; amount; xfer_id } ->
      let b =
        Bytes.create
          (9 + int_length from_bank + 1 + int_length to_bank + 1 + int_length amount + 1
         + int_length xfer_id)
      in
      let pos = put_int b (put_string b 0 "transfer ") from_bank in
      let pos = put_int b (put_char b pos ' ') to_bank in
      let pos = put_int b (put_char b pos ' ') amount in
      finish b (put_int b (put_char b pos ' ') xfer_id)
  | Transfer_ack { xfer_id } -> tag_int "transferack " xfer_id

let decode s =
  let fail () = Error (Printf.sprintf "Wire.decode: cannot parse %S" s) in
  match String.split_on_char ' ' s with
  | [ "buy"; amount; nonce ] -> (
      match (int_of_string_opt amount, Int64.of_string_opt nonce) with
      | Some amount, Some nonce when amount >= 0 -> Ok (Buy { amount; nonce })
      | _ -> fail ())
  | [ "buyreply"; nonce; accepted ] -> (
      match (Int64.of_string_opt nonce, bool_of_string_opt accepted) with
      | Some nonce, Some accepted -> Ok (Buy_reply { nonce; accepted })
      | _ -> fail ())
  | [ "sell"; amount; nonce ] -> (
      match (int_of_string_opt amount, Int64.of_string_opt nonce) with
      | Some amount, Some nonce when amount >= 0 -> Ok (Sell { amount; nonce })
      | _ -> fail ())
  | [ "sellreply"; nonce ] -> (
      match Int64.of_string_opt nonce with
      | Some nonce -> Ok (Sell_reply { nonce })
      | None -> fail ())
  | [ "request"; seq ] -> (
      match int_of_string_opt seq with
      | Some seq -> Ok (Audit_request { seq })
      | None -> fail ())
  | [ "reply"; isp; seq; credit ] -> (
      match (int_of_string_opt isp, int_of_string_opt seq) with
      | Some isp, Some seq ->
          if credit = "-" then Ok (Audit_reply { isp; seq; credit = [||] })
          else (
            let cells = String.split_on_char ',' credit in
            let parsed =
              List.filter_map
                (fun cell ->
                  match String.split_on_char ':' cell with
                  | [ p; v ] -> (
                      match (int_of_string_opt p, int_of_string_opt v) with
                      | Some p, Some v -> Some (p, v)
                      | _ -> None)
                  | _ -> None)
                cells
            in
            if List.length parsed = List.length cells then
              Ok (Audit_reply { isp; seq; credit = Array.of_list parsed })
            else fail ())
      | _ -> fail ())
  | [ "transfer"; from_bank; to_bank; amount; xfer_id ] -> (
      match
        ( int_of_string_opt from_bank,
          int_of_string_opt to_bank,
          int_of_string_opt amount,
          int_of_string_opt xfer_id )
      with
      | Some from_bank, Some to_bank, Some amount, Some xfer_id when amount >= 0 ->
          Ok (Transfer { from_bank; to_bank; amount; xfer_id })
      | _ -> fail ())
  | [ "transferack"; xfer_id ] -> (
      match int_of_string_opt xfer_id with
      | Some xfer_id -> Ok (Transfer_ack { xfer_id })
      | None -> fail ())
  | _ -> fail ()

(* Binary codec for snapshots and durable ISP images.  The textual
   [encode]/[decode] pair stays the wire format (sealed/signed bytes
   depend on it); this one is length-prefixed and self-delimiting, so
   payloads can sit inside larger Persist.Codec streams. *)
let encode_bin w p =
  let open Persist.Codec.W in
  match p with
  | Buy { amount; nonce } ->
      u8 w 0;
      int w amount;
      i64 w nonce
  | Buy_reply { nonce; accepted } ->
      u8 w 1;
      i64 w nonce;
      bool w accepted
  | Sell { amount; nonce } ->
      u8 w 2;
      int w amount;
      i64 w nonce
  | Sell_reply { nonce } ->
      u8 w 3;
      i64 w nonce
  | Audit_request { seq } ->
      u8 w 4;
      int w seq
  | Audit_reply { isp; seq; credit } ->
      u8 w 5;
      int w isp;
      int w seq;
      array (pair int int) w credit
  | Transfer { from_bank; to_bank; amount; xfer_id } ->
      u8 w 6;
      int w from_bank;
      int w to_bank;
      int w amount;
      int w xfer_id
  | Transfer_ack { xfer_id } ->
      u8 w 7;
      int w xfer_id

let decode_bin r =
  let open Persist.Codec.R in
  match u8 r with
  | 0 ->
      let amount = int r in
      let nonce = i64 r in
      if amount < 0 then corrupt r "Wire: negative buy amount";
      Buy { amount; nonce }
  | 1 ->
      let nonce = i64 r in
      let accepted = bool r in
      Buy_reply { nonce; accepted }
  | 2 ->
      let amount = int r in
      let nonce = i64 r in
      if amount < 0 then corrupt r "Wire: negative sell amount";
      Sell { amount; nonce }
  | 3 -> Sell_reply { nonce = i64 r }
  | 4 -> Audit_request { seq = int r }
  | 5 ->
      let isp = int r in
      let seq = int r in
      let credit = array (pair int int) r in
      Audit_reply { isp; seq; credit }
  | 6 ->
      let from_bank = int r in
      let to_bank = int r in
      let amount = int r in
      let xfer_id = int r in
      if amount < 0 then corrupt r "Wire: negative transfer amount";
      Transfer { from_bank; to_bank; amount; xfer_id }
  | 7 -> Transfer_ack { xfer_id = int r }
  | tag -> corrupt r (Printf.sprintf "Wire: unknown payload tag %d" tag)

type signed = { payload : payload; signature : int }

(* An encoding or an unsealed payload is fresh, and the code it is
   handed to only reads it, so it crosses between string and bytes
   without a copy. *)
let seal_for_bank rng bank_pk payload =
  Toycrypto.Seal.seal rng bank_pk (Bytes.unsafe_of_string (encode payload))

let open_at_bank bank_sk sealed =
  match Toycrypto.Seal.unseal bank_sk sealed with
  | None -> None
  | Some bytes -> Result.to_option (decode (Bytes.unsafe_to_string bytes))

let sign_by_bank bank_sk payload =
  let signature = Toycrypto.Rsa.sign bank_sk (Bytes.unsafe_of_string (encode payload)) in
  { payload; signature }

let verify_from_bank bank_pk { payload; signature } =
  if Toycrypto.Rsa.verify_sig bank_pk (Bytes.unsafe_of_string (encode payload)) signature
  then Some payload
  else None
