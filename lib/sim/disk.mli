(** A simulated append-only log device with explicit durability.

    The device models the storage a write-ahead log sits on: bytes go
    through a volatile {e tail} buffer ({!append}) and only become
    durable on {!flush}.  A {!power_cut} applies the fault plan to the
    boundary between the two: acknowledged (flushed) bytes are never
    damaged, but the unflushed tail is lost — except that, with
    probability [torn], a strict byte-prefix of it survives (the
    classic torn final record), and with probability [rot] one random
    bit of that surviving fragment is flipped in place (bit rot on the
    sector that was mid-write).  Scoping faults to the unacknowledged
    region is what makes recovery provable: a record whose flush was
    acknowledged is exactly the bytes that were appended.

    Like {!Fault}, a device binds its plan to a private {!Rng.t}
    stream, so fault decisions are deterministic per seed and
    independent of every other stream; a {!reliable} plan draws no
    randomness at all.  All decisions are counted in {!Stats.Counter}
    values, and the full device state (stream, durable bytes, tail,
    counters) is part of a world's capture. *)

type plan = {
  torn : float;
      (** P(a strict prefix of the unflushed tail survives a power
          cut, leaving a torn final record). *)
  rot : float;
      (** P(one bit of the surviving torn fragment is flipped). *)
}

val reliable : plan
(** Both probabilities zero: a power cut loses exactly the unflushed
    tail, nothing more, nothing less, and draws no randomness. *)

val plan : ?torn:float -> ?rot:float -> unit -> plan
(** {!reliable} with the given overrides.
    @raise Invalid_argument on a probability outside [\[0,1\]]. *)

type t

val create : ?plan:plan -> Rng.t -> t
(** [create ~plan rng] validates [plan] (default {!reliable}) and
    splits a private stream off [rng]. *)

val append : t -> string -> unit
(** Buffer bytes into the volatile tail. *)

val flush : t -> unit
(** Acknowledge the tail: everything appended so far becomes durable.
    A no-op when the tail is empty (and counts nothing). *)

val power_cut : t -> unit
(** Lose the unflushed tail, modulo the fault plan's torn fragment and
    bit rot (see the module description).  The durable prefix is
    untouched.  A power cut with an empty tail is still counted — the
    crash happened — but damages nothing and, like an empty-tail
    {!flush}, draws no randomness. *)

val contents : t -> string
(** The durable bytes — what a recovery scan reads after a crash.
    Unflushed tail bytes are {e not} included. *)

val durable_size : t -> int

val reset_to : t -> string -> unit
(** Atomically replace the entire durable contents (and discard any
    tail) — the compaction primitive: write the new log to a fresh
    device and swap, so no crash can observe a half-truncated log. *)

(** {1 Counters}

    All monotone, starting at zero. *)

val flushes : t -> int

val torn_tails : t -> int
(** Power cuts that left a torn fragment behind. *)

val lost_bytes : t -> int
(** Unflushed bytes destroyed by power cuts (tail minus surviving
    fragment). *)

val counters : t -> Stats.Counter.t list

val encode_state : Persist.Codec.W.t -> t -> unit
(** Snapshot capture of the device's RNG stream, durable bytes,
    volatile tail and counters (the plan is configuration and is
    rebuilt by whoever re-creates the device). *)
