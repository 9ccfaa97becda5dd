(** E21: collusion rings against the sparse audit engine's cycle-sum
    detector ({!Audit.Cycle}).  Coalitions built from the
    {!Zmail.Adversary} plan constructors — an antisymmetric pair and
    3-rings (plus a 5-ring under [full]) that frame honest victims
    with balanced lies no strict-majority rule can see — crossed with
    fault levels (calm mesh, scheduled partitions severing one
    coalition member from the bank across audit rounds).  Per cell:
    rings found and their volume, when the first ring lands and when
    every member stands convicted (after a partition this rides the
    carry-matrix reconciliation), victims cleared, honest convictions
    (zero everywhere, enforced by failwith and by the cycle-residue
    invariant), and the e-penny residue (zero: collusion tampers
    reports, never money).

    [full] raises the grid scale, adds the 5-ring plan, and appends a
    calm 3-ring cell at 10^4 ISPs × 25 users — the population §4.4
    gestures at, representable only on the sparse rows. *)

val run :
  ?obs:Obs.Run.t ->
  ?persist:Checkpoint.t ->
  ?seed:int ->
  ?full:bool ->
  unit ->
  Sim.Table.t list
