(** Behavioural profiles for normal email users.

    §1.2 claims users who receive about as much as they send are
    net-zero under Zmail.  The profiles here drive the timed simulation
    (E2): each user sends at a Poisson rate, picks correspondents
    Zipf-style from an address book, and replies to a fraction of what
    it receives — which is what makes flows roughly balance without
    being artificially equal. *)

type profile = {
  name : string;
  daily_sends : float;  (** Mean fresh (non-reply) messages per day. *)
  reply_probability : float;  (** Probability of answering a received message. *)
  contacts : int;  (** Address-book size. *)
  weight : float;  (** Share of this profile in the population. *)
}

val average : profile

val standard_mix : profile list
(** [light; average; heavy; broadcaster] with weights summing to 1. *)

val assign : Sim.Rng.t -> profile list -> int -> profile array
(** [assign rng mix n] draws a profile for each of [n] users according
    to the mix weights. *)

val inter_send_delay : Sim.Rng.t -> profile -> float
(** Exponential inter-arrival time (seconds) between fresh sends. *)

val pick_correspondent :
  Sim.Rng.t -> self:int -> universe:int -> profile -> int
(** Choose a recipient index in [\[0, universe)], never [self],
    Zipf-weighted toward a small circle of frequent contacts (the
    user's "address book" is a deterministic pseudo-random subset keyed
    by the user's own index, so repeated calls favour the same
    contacts). *)
