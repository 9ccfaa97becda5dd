(** The write-ahead-log engine shared by {!Isp} and {!Bank}.

    A journal logs one kernel (of type ['k]) onto one {!Sim.Disk}.  The
    kernel supplies only its record vocabulary: the tags and fields of
    its delta records, the encoder and restorer of its protocol state,
    and a function that re-applies one delta record.  The journal owns
    everything else:

    - {b Framing.}  Every record is a {!Persist.Wal.frame}; sequence
      numbers start at [0] after each checkpoint.
    - {b Checkpoints.}  Record [0] is always a checkpoint: tag [0]
      followed directly by the kernel's encoded state.  The log is rewritten as a single fresh
      checkpoint ({!Sim.Disk.reset_to}, atomic) when the kernel is
      created, once 512 delta records follow the last checkpoint
      (purely count-based, hence deterministic), after every successful
      {!recover}, and whenever the kernel calls {!checkpoint} itself.
      Kernel record tags therefore start at [1].
    - {b Group commit.}  A record appended with [~flush:true] makes the
      whole volatile tail durable at once.  Under [Group n] a lazy
      record ([~flush:false]) waits until [n] lazy records accumulate;
      under [Every_record] every record flushes as it is appended.
    - {b Integrity.}  The checkpoint carries no CRC of its own: the
      frame CRC that {!Persist.Wal.scan} checks covers every byte of
      record [0], so a flipped bit anywhere in it — even inside an
      integer field the codec could decode — is refused before any
      field is restored.
    - {b Recovery.}  {!recover} is the only way back from a crash. *)

type commit =
  | Every_record
      (** Every record flushes as it is appended (the bank: all its
          records move money or protocol state).  The journal keeps no
          lazy count, so none is captured by {!encode_state}. *)
  | Group of int
      (** Group commit (the ISP): lazy records flush once this many
          accumulate, or with the next mandatory record.  The lazy
          count is captured by {!encode_state}, at every group size. *)

type 'k t

val off : 'k t
(** No device: appends and checkpoints do nothing and cost nothing,
    {!encode_state} writes nothing, and {!recover} returns [Error]. *)

val create :
  Sim.Disk.t ->
  commit:commit ->
  encode:(Persist.Codec.W.t -> 'k -> unit) ->
  restore:(Persist.Codec.R.t -> 'k -> unit) ->
  'k t
(** [create disk ~commit ~encode ~restore] logs onto [disk].  [encode]
    and [restore] are the kernel's protocol-state codec, the body of
    every checkpoint record; they must not include the journal itself (a
    checkpoint that captured the device would contain the log that
    contains it).  The log is empty until the first {!checkpoint},
    which the kernel writes as soon as it exists. *)

val disk : 'k t -> Sim.Disk.t option

val logging : 'k t -> bool
(** [false] for {!off}.  A per-message call site tests it before
    building its record's writer: the writer is a closure over the
    record's fields, and {!append} on {!off} would only drop it. *)

val appended : 'k t -> int
(** Delta records appended since creation (checkpoints excluded). *)

val replayed : 'k t -> int
(** Delta records replayed by the most recent successful {!recover}. *)

val append : 'k t -> 'k -> flush:bool -> (Persist.Codec.W.t -> unit) -> unit
(** [append j k ~flush write] frames the record [write] produces (its
    tag first) and appends it; see the module description for [flush]
    and for the compaction that may follow, which encodes [k]. *)

val checkpoint : 'k t -> 'k -> unit
(** Replace the whole log by one checkpoint record holding [k]'s
    encoded state, dropping the volatile tail with it. *)

val power_cut : 'k t -> unit
(** {!Sim.Disk.power_cut} on the device; a no-op for {!off}. *)

val unknown_tag : Persist.Codec.R.t -> int -> 'a
(** The refusal a kernel's replay function raises for a tag outside its
    vocabulary. *)

val recover :
  'k t ->
  'k ->
  name:string ->
  tracer:Obs.Trace.t ->
  set_tracer:('k -> Obs.Trace.t -> unit) ->
  replay:('k -> int -> Persist.Codec.R.t -> unit) ->
  after:('k -> unit) ->
  (unit, string) result
(** Rebuild [k] from the durable log after a {!power_cut}:

    + scan the durable bytes ({!Persist.Wal.scan}), stopping at the
      first torn or corrupt frame — lost only if it was never flushed,
      since flushed bytes are never damaged;
    + require record [0] to be a checkpoint, then restore [k] from
      it;
    + re-apply every following record in order, with [k]'s tracer
      swapped for {!Obs.Trace.none} ([tracer] is the one to put back):
      [replay k tag r] reads the rest of the record from [r] and must
      re-run the same state transition as the live call, drawing the
      same RNG and nonce values and appending nothing.  Replay is
      therefore silent, and [k] ends bit for bit where it was at its
      last flushed record;
    + set {!replayed}, run [after k] (the kernel's own restart steps),
      and write a fresh {!checkpoint}, which also truncates whatever
      torn or rotten suffix the power cut left.

    Returns [Error], prefixed with [name], when the journal is {!off},
    the log holds no intact record (a damaged record [0] fails its
    frame CRC, so [k] is untouched), record [0] is not a checkpoint or
    fails its decode, or replay diverges: a record that frames
    correctly cannot be decoded ([Persist.Codec.Corrupt]) or its
    transition fails ([Failure], [Invalid_argument]).  After a
    divergence [k] is left at the checkpoint plus the records replayed
    before it, after an intact checkpoint that fails its decode it is
    partly restored, and no checkpoint is written; either is a bug,
    not a device fault.  Damage past record [0] is not an error: the
    log simply ends there, as at a torn tail.  Never raises on a
    damaged log. *)

val encode_state : Persist.Codec.W.t -> 'k t -> unit
(** Snapshot capture of the device
    ({!Sim.Disk.encode_state}) and the log bookkeeping: next sequence
    number, lazy count (under [Group] only), records since the last
    checkpoint, {!appended} and {!replayed}.  Nothing for {!off}. *)
