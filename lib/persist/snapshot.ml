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
   seed/tag) instead of [seed lxor tag], and delta snapshots exist
   (see [delta]).  No migration from v5: the derivation change is
   semantic — a v5 snapshot's replay-verify could never pass against
   the new streams (same situation as v1->v2).
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
   could never pass. *)
let current_version = 8
let magic = "ZMSNAP01"

(* A delta snapshot's first section; the name is not a valid component
   section name, so full and delta snapshots cannot be confused. *)
let manifest_name = "__manifest"

let v ~experiment ~label ~seed ~time sections =
  { version = current_version; experiment; label; seed; time; sections }

let section t name = List.assoc_opt name t.sections

let migrations : (int, (string * string) list -> (string * string) list) Hashtbl.t =
  Hashtbl.create 4

let register_migration ~from_version f = Hashtbl.replace migrations from_version f

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

let migrate t =
  let rec go version sections =
    if version = current_version then Ok { t with version; sections }
    else
      match Hashtbl.find_opt migrations version with
      | Some f -> go (version + 1) (f sections)
      | None ->
          Error
            (Printf.sprintf
               "snapshot version %d is not readable (current is %d, no migration)"
               version current_version)
  in
  if t.version > current_version then
    Error
      (Printf.sprintf "snapshot version %d is newer than this build's %d"
         t.version current_version)
  else go t.version t.sections

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
      | Ok t -> migrate t
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

(* ------------------------------------------------------------------ *)
(* Delta snapshots                                                     *)
(* ------------------------------------------------------------------ *)

(* A delta is an ordinary snapshot whose first section is a manifest:
   the full section list in capture order, each entry carrying a dirty
   flag and the CRC-32 of the section body — the included body for
   dirty entries, the base snapshot's body for clean ones.  Clean
   bodies are not stored; [apply_delta] copies them from the base and
   the recorded CRC catches a stale or wrong base before it can
   reconstruct a subtly wrong world.  All the file-level integrity
   machinery (per-section CRC, whole-file CRC, versioning) applies to
   a delta unchanged because it *is* a snapshot. *)

let is_delta t =
  match t.sections with (name, _) :: _ -> name = manifest_name | [] -> false

let encode_manifest w entries =
  Codec.W.u32 w (List.length entries);
  List.iter
    (fun (name, dirty, crc) ->
      Codec.W.str w name;
      Codec.W.bool w dirty;
      Codec.W.u32 w crc)
    entries

let decode_manifest r =
  let n = Codec.R.u32 r in
  List.init n (fun _ ->
      let name = Codec.R.str r in
      let dirty = Codec.R.bool r in
      let crc = Codec.R.u32 r in
      (name, dirty, crc))

let delta ~base ~experiment ~label ~seed ~time sections =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if is_delta base then fail "delta: base is itself a delta snapshot"
  else begin
    let missing = ref None in
    let entries =
      List.map
        (fun (name, body) ->
          match body with
          | Some b -> (name, true, Codec.Crc32.string b)
          | None -> (
              match List.assoc_opt name base.sections with
              | Some b -> (name, false, Codec.Crc32.string b)
              | None ->
                  if !missing = None then missing := Some name;
                  (name, false, 0)))
        sections
    in
    match !missing with
    | Some name ->
        fail "delta: clean section %S is absent from the base snapshot" name
    | None ->
        let manifest =
          Codec.to_string (fun w () -> encode_manifest w entries) ()
        in
        let dirty_bodies =
          List.filter_map
            (fun (name, body) -> Option.map (fun b -> (name, b)) body)
            sections
        in
        Ok
          {
            version = current_version;
            experiment;
            label;
            seed;
            time;
            sections = (manifest_name, manifest) :: dirty_bodies;
          }
  end

let apply_delta ~base d =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (is_delta d) then fail "apply_delta: not a delta snapshot"
  else if is_delta base then fail "apply_delta: base is itself a delta snapshot"
  else if base.experiment <> d.experiment then
    fail "apply_delta: experiment %S vs base %S" d.experiment base.experiment
  else if base.seed <> d.seed then
    fail "apply_delta: seed %d vs base %d" d.seed base.seed
  else
    match Codec.decode decode_manifest (List.assoc manifest_name d.sections) with
    | Error e -> fail "apply_delta: manifest: %s" e
    | Ok entries -> (
        let stored = List.tl d.sections in
        let rec build acc = function
          | [] -> Ok (List.rev acc)
          | (name, dirty, crc) :: rest ->
              if dirty then (
                match List.assoc_opt name stored with
                | None -> fail "apply_delta: dirty section %S has no body" name
                | Some body ->
                    if Codec.Crc32.string body <> crc then
                      fail "apply_delta: dirty section %S fails its manifest CRC"
                        name
                    else build ((name, body) :: acc) rest)
              else
                match List.assoc_opt name base.sections with
                | None ->
                    fail "apply_delta: clean section %S is absent from the base"
                      name
                | Some body ->
                    if Codec.Crc32.string body <> crc then
                      fail
                        "apply_delta: stale base: section %S does not match the \
                         delta's manifest CRC"
                        name
                    else build ((name, body) :: acc) rest
        in
        match build [] entries with
        | Error _ as e -> e
        | Ok sections ->
            Ok
              {
                version = d.version;
                experiment = d.experiment;
                label = d.label;
                seed = d.seed;
                time = d.time;
                sections;
              })

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
