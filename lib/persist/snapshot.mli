(** Versioned full-world snapshots.

    A snapshot is a header (format version, experiment id, scenario
    label, seed, capture time) plus named binary sections, one per
    captured component, each produced with {!Codec.W}.  On disk every
    section body carries its own CRC-32 and the whole file carries a
    trailing CRC over every preceding byte, so a truncated or
    bit-flipped snapshot fails to decode — it can never restore a
    subtly wrong world.

    Versioning: {!current_version} is bumped whenever any component's
    encoding changes shape.  Only the current version is readable:
    {!of_string} refuses an older or a newer one with an error naming
    both versions (snapshots are never migrated).  See DESIGN.md §8
    for the bump procedure. *)

type t = {
  version : int;  (** Format version; {!of_string} accepts only {!current_version}. *)
  experiment : string;  (** e.g. ["e16"]. *)
  label : string;  (** Scenario within the experiment, [""] if none. *)
  seed : int;  (** The world's seed, for refusing cross-seed resume. *)
  time : float;  (** Simulated time of capture, in seconds. *)
  sections : (string * string) list;  (** [(name, body)] in capture order. *)
}

val current_version : int
val magic : string

val v :
  experiment:string ->
  label:string ->
  seed:int ->
  time:float ->
  (string * string) list ->
  t

val section : t -> string -> string option

val to_string : t -> string
(** Serialize with per-section and whole-file CRCs.  [to_string] of an
    unmodified {!of_string} result reproduces the input byte for byte
    (format stability — the golden test relies on it). *)

val of_string : string -> (t, string) result
(** Decode and verify.  Any corruption — bad magic, bad CRC anywhere,
    truncation, trailing bytes — is an [Error], never a wrong value, and
    so is a version other than {!current_version}. *)

val write_file : path:string -> t -> unit
val read_file : path:string -> (t, string) result

val diff : t -> t -> (unit, string) result
(** Structural comparison: [Ok ()] when every header field and every
    section is byte-identical, otherwise [Error] naming the first
    difference.  This is the resume-determinism check: the replayed
    world's capture must [diff] clean against the snapshot it is
    resuming from. *)
