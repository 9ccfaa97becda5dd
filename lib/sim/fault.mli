(** Link-fault injection for the simulated network.

    A {!plan} describes how a point-to-point link misbehaves:
    per-message probabilities of dropping, duplicating, delaying or
    corrupting a message, plus scheduled outage windows during which
    nothing gets through.  A {!Mesh.t} binds plans to every directed
    link of a node set, adds scheduled partitions, and answers for the
    two kinds of traffic the simulation carries: connection attempts
    ({!Mesh.attempt}, SMTP sessions) and datagrams ({!Mesh.route},
    ISP↔bank and inter-bank accounting messages).  All fault decisions
    come from one private {!Rng.t} stream, so they are deterministic
    per seed and independent of every other random stream, and every
    decision is counted so experiments can report exactly what the
    links did. *)

type plan = {
  drop : float;  (** P(a copy is silently lost). *)
  duplicate : float;  (** P(the message is sent twice). *)
  delay_prob : float;  (** P(a copy is held back before delivery). *)
  delay_max : float;  (** Held copies wait U[0, delay_max) seconds. *)
  corrupt : float;  (** P(a copy is altered in transit). *)
  outages : (float * float) list;
      (** Absolute [\[start, stop)] windows during which every message
          is lost. *)
}

val reliable : plan
(** All probabilities zero, no outages: a perfect link.  Routing
    through a reliable plan consumes no randomness at all, so adding a
    fault layer to an existing simulation does not shift its streams. *)

val plan :
  ?drop:float -> ?duplicate:float -> ?delay_prob:float -> ?delay_max:float ->
  ?corrupt:float -> ?outages:(float * float) list -> unit -> plan
(** {!reliable} with the given overrides.
    @raise Invalid_argument on a probability outside [\[0,1\]], a
    negative [delay_max], or an outage window with [stop < start]. *)

(** A fault model for a whole mesh of point-to-point links.

    A {!Mesh.t} answers fault verdicts for any ordered [(src, dst)]
    node pair: a default {!plan} applies everywhere, individual
    directed links can override it, and scheduled {!Mesh.partition}
    windows split the node set into groups whose cross-group traffic
    is severed outright.  All decisions come from one private RNG
    stream split at creation, so runs stay byte-deterministic per
    seed; a mesh left at its defaults (reliable plan, no overrides, no
    partitions) is {!Mesh.trivial} and answers [`Deliver] without
    touching the RNG or any counter — the layer costs nothing unless
    faults are configured.

    [Mesh.attempt] models a connection attempt (a session, not a
    datagram), so only the [drop], [delay_prob]/[delay_max] and
    [outages] fields of a plan apply; [duplicate] and [corrupt] are
    ignored — a stream transport does not duplicate or bit-flip whole
    sessions.  [Mesh.route] models a datagram and honours every field. *)
module Mesh : sig
  type partition
  (** A time window during which the node set is split into groups and
      every cross-group attempt is reported [`Lost]. *)

  val partition : start:float -> stop:float -> groups:int array -> partition
  (** [partition ~start ~stop ~groups] severs cross-group links during
      [\[start, stop)].  [groups.(node)] is the node's group id; the
      array length must equal the mesh's [n_nodes] (checked at
      {!create}).
      @raise Invalid_argument if [stop < start] or [groups] is empty. *)

  type t

  val create :
    ?default:plan ->
    ?links:((int * int) * plan) list ->
    ?partitions:partition list ->
    n_nodes:int ->
    Engine.t ->
    Rng.t ->
    t
  (** [create ~default ~links ~partitions ~n_nodes engine rng] builds a
      mesh over nodes [0 .. n_nodes-1].  [links] lists directed
      [(src, dst)] overrides of the [default] plan (default
      {!reliable}).  A private RNG stream is split off [rng].
      @raise Invalid_argument on an invalid plan, a link endpoint
      outside the node range, or a partition whose group array length
      differs from [n_nodes]. *)

  val n_nodes : t -> int

  val trivial : t -> bool
  (** [true] iff the mesh was created with the reliable default, no
      link overrides and no partitions — {!attempt} is then a constant
      [`Deliver] and {!route} an immediate delivery, both with zero RNG
      and counter cost. *)

  val severed : t -> a:int -> b:int -> bool
  (** [severed t ~a ~b] is [true] iff some partition window active at
      the engine's current time places [a] and [b] in different groups.
      Pure: consumes no randomness and counts nothing, so schedulers
      can probe reachability without perturbing the fault stream. *)

  val attempt : t -> src:int -> dst:int -> [ `Deliver | `Delayed of float | `Lost ]
  (** Verdict for one connection attempt from [src] to [dst] now:
      [`Lost] if the pair is partition-severed, the link plan is in an
      outage window, or the drop probability fires; [`Delayed d] if the
      delay probability fires (the caller should retry the attempt
      after [d] seconds, without consuming a retry); [`Deliver]
      otherwise.  Never draws for [duplicate] or [corrupt]. *)

  val route :
    t -> src:int -> dst:int -> ?corrupt:('a -> 'a) -> ('a -> unit) -> 'a -> unit
  (** [route t ~src ~dst ~corrupt deliver msg] pushes one datagram from
      [src] to [dst] now.  A severed pair or an outage window loses it;
      otherwise it may be duplicated, and each copy may be dropped,
      corrupted (via [corrupt]; without a corruptor the elected copy is
      lost instead, still counted as corrupted) or held back
      U\[0, delay_max) seconds.  Surviving copies reach [deliver] —
      immediately, or via the engine once the hold expires (a held
      copy is delivered, never re-drawn).  On a plan with
      [duplicate = corrupt = 0] a message draws and counts exactly
      what one {!attempt} on the same link does; on a trivial mesh it
      is delivered at once, for free.  Never raises. *)

  (** {1 Counters}  All monotone, zero on a trivial mesh.  [attempts]
      counts sessions and datagrams alike; [delivered] counts copies
      handed over without a hold. *)

  val attempts : t -> int
  val delivered : t -> int
  val link_dropped : t -> int
  val link_delayed : t -> int
  val outage_dropped : t -> int

  val partition_dropped : t -> int
  (** Attempts severed by an active partition window. *)

  val duplicated : t -> int
  (** Datagrams sent as two copies. *)

  val corrupted : t -> int
  (** Datagram copies altered (or lost for want of a corruptor). *)

  val counters : t -> Stats.Counter.t list

  val encode_state : Persist.Codec.W.t -> t -> unit
  (** Capture of the mesh RNG stream and counters (the static
      plan/partition configuration is rebuilt by replay, not stored). *)
end
