(** Hashcash-style computational challenge (Back; Dwork & Naor) — the
    §2.3 "computational cost based" baseline.

    A stamp is a nonce making [siphash(recipient ++ nonce)] start with
    [difficulty] zero bits.  Minting really performs the search (over
    SipHash), so E9's cost measurements are measured work, not an
    assumed formula. *)

type stamp = private { recipient : string; nonce : int64; difficulty : int }

val mint : Sim.Rng.t -> recipient:string -> difficulty:int -> stamp * int
(** Search for a valid stamp.  Returns the stamp and the number of hash
    evaluations performed (expected 2{^difficulty}).
    @raise Invalid_argument for difficulty outside [0, 30]. *)

val verify : stamp -> bool
(** One hash evaluation. *)

val seconds_per_hash : float
(** Cost model for E9: ~10⁻⁷ s per hash on 2004-era hardware
    (documented constant, not measured at runtime, so experiment
    output is deterministic). *)
