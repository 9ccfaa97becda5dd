(** E4 — bulk accounting cost: Zmail vs SHRED/Vanquish (§2.3).

    Paper claim: "in our approach payments are handled in a bulk
    fashion; therefore, the cost of handling payments is small" — in
    contrast to SHRED, where "the storage and computational cost for an
    ISP to collect an individual payment could possibly exceed the
    monetary value of the payment".

    Runs the same mail volume through both schemes and compares ledger
    operations, settlement messages and bytes, and human effort. *)

val run :
  ?obs:Obs.Run.t -> ?persist:Checkpoint.t -> ?seed:int -> unit -> Sim.Table.t list
(** [persist] (default {!Checkpoint.none}) drives the Zmail side through
    the checkpoint/resume layer. *)
