(** E16 (robustness) — chaos on the ISP↔bank channel.

    Sweeps the {!Sim.Fault} plan on the bank link from a reliable
    baseline to 20% drop/duplicate rates with corruption, delays, an
    outage window and two ISP crash/recovery cycles, all over a world
    that also hosts a cheating ISP.  Two tables come out: goodput with
    every per-fault counter, and the protocol invariants — the E2
    zero-sum residue equals exactly what the cheat minted, the §4.4
    audit still convicts the cheater (and nobody else), whatever the
    link did.  A scenario whose residue differs from the cheat-minted
    total, or that convicts an honest ISP, fails the run.

    Every scenario is traced — into [obs]'s shared tracer when the
    front end supplies one (for [--trace] export), otherwise into a
    small private ring — and the four online checkers of
    {!Obs.Invariant} (zero-sum, credit antisymmetry, exactly-once
    buy/sell, cycle residue) watch the stream; a violation aborts the scenario with
    the offending event and the last traced events on stderr. *)

val run :
  ?obs:Obs.Run.t -> ?persist:Checkpoint.t -> ?seed:int -> unit ->
  Sim.Table.t list
(** [persist] (default {!Checkpoint.none}) drives every chaos scenario
    through the checkpoint/resume layer (snapshots record the scenario
    label). *)
