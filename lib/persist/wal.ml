(* Frame layout (all integers little-endian):

     u32 seq | u32 payload_len | payload bytes | u32 crc

   The CRC covers the first 8 + payload_len bytes of the frame.  The
   sequence number is part of the checksummed region, so a frame moved
   to another log position fails verification even if its payload and
   CRC are internally consistent. *)

let u32_at s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* One exact-size allocation: header and payload go in first, the CRC
   is taken over them in place, then the trailer is written. *)
let frame ~seq payload =
  if seq < 0 || seq > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Wal.frame: sequence %d outside u32" seq);
  let len = String.length payload in
  if len > 0xFFFFFFFF then invalid_arg "Wal.frame: payload longer than u32";
  let b = Bytes.create (8 + len + 4) in
  Bytes.set_int32_le b 0 (Int32.of_int seq);
  Bytes.set_int32_le b 4 (Int32.of_int len);
  Bytes.blit_string payload 0 b 8 len;
  let crc = Codec.Crc32.sub (Bytes.unsafe_to_string b) ~pos:0 ~len:(8 + len) in
  Bytes.set_int32_le b (8 + len) (Int32.of_int crc);
  Bytes.unsafe_to_string b

type verdict = Clean | Torn of int | Corrupt of int

type scan = {
  records : string list;
  clean_bytes : int;
  verdict : verdict;
}

let scan log =
  let len = String.length log in
  let rec go pos seq acc =
    if pos = len then
      { records = List.rev acc; clean_bytes = pos; verdict = Clean }
    else if len - pos < 8 then
      { records = List.rev acc; clean_bytes = pos; verdict = Torn pos }
    else begin
      let payload_len = u32_at log (pos + 4) in
      if len - pos < 8 + payload_len + 4 then
        { records = List.rev acc; clean_bytes = pos; verdict = Torn pos }
      else begin
        let stated = u32_at log (pos + 8 + payload_len) in
        let crc = Codec.Crc32.sub log ~pos ~len:(8 + payload_len) in
        if crc <> stated || u32_at log pos <> seq then
          { records = List.rev acc; clean_bytes = pos; verdict = Corrupt pos }
        else
          go
            (pos + 8 + payload_len + 4)
            (seq + 1)
            (String.sub log (pos + 8) payload_len :: acc)
      end
    end
  in
  go 0 0 []
