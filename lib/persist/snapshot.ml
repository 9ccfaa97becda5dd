type t = {
  version : int;
  experiment : string;
  label : string;
  seed : int;
  time : float;
  sections : (string * string) list;
}

(* v5: Zmail.Credit rows and the bank carry matrix moved to the
   canonical sparse-pairs encoding (lib/audit), and Wire.Audit_reply
   binary payloads carry sparse rows.
   v6: subsystem RNG streams derive through Rng.stream (mixed
   seed/tag) instead of [seed lxor tag], and delta snapshots (a
   manifest first section plus the dirty sections) were added.  No
   migration from v5: the derivation change is semantic — a v5
   snapshot's replay-verify could never pass against the new streams
   (same situation as v1->v2).  Delta snapshots were later removed,
   having no caller left; a full snapshot did not change by a byte,
   so the version stayed.
   v7: the world section gains the bank-up flag and the bank-crash /
   bank-recovery / lost-while-bank-down / WAL-fallback link counters
   (E23's durable-WAL work); disk-backed kernels and the bank append a
   storage-device + WAL-bookkeeping section to their state.  No
   migration from v6: a v6 snapshot simply lacks the new trailing
   fields, and replay-verify compares full section bytes.
   v8: the standalone ISP<->bank "fault" section is gone (bank links
   are mesh links now) and the "mesh" section gains the datagram
   duplicated / corrupted counters.  No migration from v7: bank-link
   draws moved to the mesh stream, so a v7 snapshot's replay-verify
   could never pass.
   v9: deletions only.  The bank's per-reason reject counters lose the
   never-produced [Replayed] slot (7 -> 6); the ledger no longer
   carries a per-user limit array (the one daily limit is config); the
   ISP drops five write-only counters (paid/free sends, paid receives,
   refunds, crashes).  WAL checkpoint records, which the disk section
   holds, lose the image's length prefix and CRC: the frame CRC
   already covers them.  No migration from v8: a v8 section has fields
   v9 does not read. *)
let current_version = 9
let magic = "ZMSNAP01"

let v ~experiment ~label ~seed ~time sections =
  { version = current_version; experiment; label; seed; time; sections }

let section t name = List.assoc_opt name t.sections

let to_string t =
  (* Layout: magic bytes, u32 version, header fields, u32 section
     count, then each section as (name, crc32(body), body), and
     finally a u32 CRC-32 over every preceding byte.  Every byte of
     the file is covered by at least one checksum. *)
  let w = Codec.W.create () in
  Codec.W.str w magic;
  Codec.W.u32 w t.version;
  Codec.W.str w t.experiment;
  Codec.W.str w t.label;
  Codec.W.int w t.seed;
  Codec.W.float w t.time;
  Codec.W.u32 w (List.length t.sections);
  List.iter
    (fun (name, body) ->
      Codec.W.str w name;
      Codec.W.u32 w (Codec.Crc32.string body);
      Codec.W.str w body)
    t.sections;
  let prefix = Codec.W.contents w in
  let trailer = Codec.W.create () in
  Codec.W.u32 trailer (Codec.Crc32.string prefix);
  prefix ^ Codec.W.contents trailer

let parse r =
  let open Codec.R in
  let m = str r in
  if m <> magic then corrupt r "bad magic: not a Zmail snapshot";
  let version = u32 r in
  let experiment = str r in
  let label = str r in
  let seed = int r in
  let time = float r in
  let n = u32 r in
  let sections =
    List.init n (fun _ ->
        let name = str r in
        let crc = u32 r in
        let body = str r in
        if Codec.Crc32.string body <> crc then
          corrupt r (Printf.sprintf "section %S fails its CRC" name);
        (name, body))
  in
  { version; experiment; label; seed; time; sections }

(* Only the current version is read.  No bump so far could be
   migrated (each changed RNG stream derivations or live state that an
   older file does not hold), so an older file is refused like a newer
   one. *)
let check_version t =
  if t.version > current_version then
    Error
      (Printf.sprintf "snapshot version %d is newer than this build's %d"
         t.version current_version)
  else if t.version < current_version then
    Error
      (Printf.sprintf
         "snapshot version %d is not readable (current is %d, no migration)"
         t.version current_version)
  else Ok t

let of_string s =
  (* Whole-file CRC first: a flipped bit anywhere (including inside
     lengths) is caught before any field is interpreted. *)
  if String.length s < 4 then Error "snapshot truncated: shorter than its trailer"
  else begin
    let prefix = String.sub s 0 (String.length s - 4) in
    let trailer = String.sub s (String.length s - 4) 4 in
    let stated =
      let b i = Char.code trailer.[i] in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
    in
    if Codec.Crc32.string prefix <> stated then Error "snapshot fails its file CRC"
    else
      match Codec.decode parse prefix with
      | Error _ as e -> e
      | Ok t -> check_version t
  end

let write_file ~path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let read_file ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let diff a b =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if a.version <> b.version then fail "version: %d vs %d" a.version b.version
  else if a.experiment <> b.experiment then
    fail "experiment: %S vs %S" a.experiment b.experiment
  else if a.label <> b.label then fail "label: %S vs %S" a.label b.label
  else if a.seed <> b.seed then fail "seed: %d vs %d" a.seed b.seed
  else if a.time <> b.time then fail "time: %g vs %g" a.time b.time
  else begin
    let names t = List.map fst t.sections in
    if names a <> names b then
      fail "section lists differ: [%s] vs [%s]"
        (String.concat ";" (names a))
        (String.concat ";" (names b))
    else
      let rec scan = function
        | [] -> Ok ()
        | ((name, ba), (_, bb)) :: rest ->
            if String.equal ba bb then scan rest
            else fail "section %S differs (%d vs %d bytes)" name (String.length ba) (String.length bb)
      in
      scan (List.combine a.sections b.sections)
  end
