(** The paper's [NNC] nonce generator and a replay tracker.

    §4.3: "The sequence of nonces generated by a process using the
    function NNC has two properties: unpredictability and
    nonrepetition."  A nonce here is a 64-bit value whose top half is a
    strictly increasing counter (nonrepetition) and whose bottom half is
    drawn from the generator's random stream (unpredictability). *)

type t
(** Generator state. *)

val create : Sim.Rng.t -> t
(** Build a generator drawing randomness from a split of [rng]. *)

val next : t -> int64
(** A fresh nonce; never equal to any earlier output of this
    generator. *)

val count : t -> int
(** Nonces issued so far. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** Capture and in-place restore of the generator's RNG stream and
    counter; restore is reached only from an ISP's WAL checkpoint
    image. *)
