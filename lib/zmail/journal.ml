type commit = Every_record | Group of int

type 'k log = {
  disk : Sim.Disk.t;
  commit : commit;
  encode : Persist.Codec.W.t -> 'k -> unit;
  restore : Persist.Codec.R.t -> 'k -> unit;
  mutable seq : int;  (** Next frame sequence number on the device. *)
  mutable lazy_count : int;  (** Unflushed lazy records (group commit). *)
  mutable since_checkpoint : int;
  mutable appended : int;
  mutable replayed : int;
}

(* [Off] is a constant constructor, so a disk-less kernel allocates no
   journal at all. *)
type 'k t = Off | On of 'k log

let off = Off

let create disk ~commit ~encode ~restore =
  On
    { disk; commit; encode; restore; seq = 0; lazy_count = 0; since_checkpoint = 0;
      appended = 0; replayed = 0 }

let disk = function Off -> None | On j -> Some j.disk
let logging = function Off -> false | On _ -> true
let appended = function Off -> 0 | On j -> j.appended
let replayed = function Off -> 0 | On j -> j.replayed
let power_cut = function Off -> () | On j -> Sim.Disk.power_cut j.disk

let tag_checkpoint = 0

(* Rewrite the log as one fresh checkpoint once this many delta
   records accumulate. *)
let compact_after = 512

(* Record 0 is the tag byte followed directly by the kernel's encoding.
   It needs no CRC of its own: the frame CRC that [Persist.Wal.scan]
   checks covers every byte of it, so a damaged checkpoint never
   reaches [restore_checkpoint]. *)
let write_checkpoint j k =
  let payload =
    Persist.Codec.to_string
      (fun w k ->
        Persist.Codec.W.u8 w tag_checkpoint;
        j.encode w k)
      k
  in
  Sim.Disk.reset_to j.disk (Persist.Wal.frame ~seq:0 payload);
  j.seq <- 1;
  j.lazy_count <- 0;
  j.since_checkpoint <- 0

let checkpoint t k = match t with Off -> () | On j -> write_checkpoint j k

let append t k ~flush write =
  match t with
  | Off -> ()
  | On j ->
      let payload = Persist.Codec.to_string (fun w write -> write w) write in
      Sim.Disk.append j.disk (Persist.Wal.frame ~seq:j.seq payload);
      j.seq <- j.seq + 1;
      j.appended <- j.appended + 1;
      j.since_checkpoint <- j.since_checkpoint + 1;
      let flush =
        flush
        || match j.commit with Every_record -> true | Group n -> j.lazy_count + 1 >= n
      in
      if flush then begin
        Sim.Disk.flush j.disk;
        j.lazy_count <- 0
      end
      else j.lazy_count <- j.lazy_count + 1;
      if j.since_checkpoint >= compact_after then write_checkpoint j k

let unknown_tag r tag =
  Persist.Codec.R.corrupt r (Printf.sprintf "unknown WAL record tag %d" tag)

let replay_record replay k payload =
  let r = Persist.Codec.R.of_string payload in
  replay k (Persist.Codec.R.u8 r) r;
  Persist.Codec.R.expect_end r

let restore_checkpoint j k r =
  if Persist.Codec.R.u8 r <> tag_checkpoint then
    Persist.Codec.R.corrupt r "first WAL record is not a checkpoint";
  j.restore r k

let recover t k ~name ~tracer ~set_tracer ~replay ~after =
  let ( let* ) = Result.bind in
  Result.map_error (fun msg -> name ^ ": " ^ msg)
  @@
  match t with
  | Off -> Error "no disk attached"
  | On j ->
      let* first, deltas =
        match (Persist.Wal.scan (Sim.Disk.contents j.disk)).Persist.Wal.records with
        | [] -> Error "no intact checkpoint record in the log"
        | first :: deltas -> Ok (first, deltas)
      in
      let* () =
        Result.map_error (( ^ ) "corrupt checkpoint: ")
          (Persist.Codec.decode (restore_checkpoint j k) first)
      in
      set_tracer k Obs.Trace.none;
      let replayed =
        match List.iter (replay_record replay k) deltas with
        | () -> Ok ()
        | exception Persist.Codec.Corrupt msg -> Error msg
        | exception (Failure msg | Invalid_argument msg) ->
            Error ("replay diverged: " ^ msg)
      in
      set_tracer k tracer;
      let* () = replayed in
      j.replayed <- List.length deltas;
      after k;
      (* Recovery is the natural checkpoint boundary, and rewriting the
         log here also truncates whatever torn or rotten suffix the
         power cut left behind. *)
      write_checkpoint j k;
      Ok ()

let encode_state w = function
  | Off -> ()
  | On j ->
      let open Persist.Codec.W in
      Sim.Disk.encode_state w j.disk;
      int w j.seq;
      (match j.commit with Group _ -> int w j.lazy_count | Every_record -> ());
      int w j.since_checkpoint;
      int w j.appended;
      int w j.replayed

let restore_state r = function
  | Off -> ()
  | On j ->
      let open Persist.Codec.R in
      Sim.Disk.restore_state r j.disk;
      j.seq <- int r;
      (match j.commit with Group _ -> j.lazy_count <- int r | Every_record -> ());
      j.since_checkpoint <- int r;
      j.appended <- int r;
      j.replayed <- int r
