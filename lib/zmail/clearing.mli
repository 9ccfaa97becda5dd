(** Mesh-routed inter-bank clearing: the one way money moves between
    member banks, over whatever wire the caller gives it.

    A {!settle_round} plans its transfers with
    {!Federation.settle_plan}, signs each as a {!Wire.Transfer} and
    ships it as a datagram through a {!Sim.Fault.Mesh} link
    ({!Sim.Fault.Mesh.route}: per-link plans, outages, partitions; a
    held copy is delivered after its hold), optionally owned by an
    {!Adversary.Bank_wire} tap that may forge, replay, reorder or drop
    it.  Exactly-once effect over that at-least-once channel comes
    from the standard pair: the sender retransmits under {!Sim.Retry}
    backoff until the receiver's signed ack arrives, and the receiver
    dedups on the transfer id, re-acking duplicates.

    Money conservation is unconditional: debit and credit are booked
    atomically when a transfer {e lands}
    ({!Federation.receive_transfer}), so the federation's total cash
    never changes, however many transfers are in flight.  A transfer
    trapped behind a partition is {e carry} ({!pending_amount}), and a
    later round plans around it ([in_flight] adjustment) instead of
    re-issuing it; when the mesh heals, retries drain the carry to
    zero.  E15 runs this driver on a reliable mesh; E19's
    Byzantine-shard column runs it under chaos. *)

type t

val create :
  ?taps:((int * int) * Adversary.Bank_wire.t) list ->
  ?retry_timeout:float ->
  engine:Sim.Engine.t ->
  mesh:Sim.Fault.Mesh.t ->
  Federation.t ->
  t
(** [taps] lists directed [(src_bank, dst_bank)] adversary taps.
    Retries start at [retry_timeout] (default 600 s) and double up to
    7200 s.  Mesh nodes [0 .. n_banks-1] are the member banks.
    @raise Invalid_argument if the mesh is smaller than the
    federation, a tap endpoint is out of range, or [retry_timeout] is
    outside [(0, 7200\]]. *)

val federation : t -> Federation.t

val settle_round : ?exclude:int list -> t -> (int * int * int) list
(** Plan and launch one settlement round, returning the planned
    transfers [(from_bank, to_bank, pennies)].  Transfers still in
    flight from earlier rounds are treated as executed when planning
    (never re-issued); [exclude] settles around flagged Byzantine
    banks.  Run the engine to let deliveries, acks and retries
    happen. *)

val pending_count : t -> int
(** Transfers launched but not yet acked. *)

val pending_amount : t -> int
(** The carry: total pennies planned but not yet applied at their
    destination.  Zero once the mesh heals and retries drain. *)

val messages : t -> int
(** Transfers and acks offered to the wire, retransmissions included —
    the cost metric the clearing bench row reports. *)

val rounds : t -> int
