(** E18: adversarial robustness — Byzantine report-tampering ISPs
    ({!Zmail.Adversary}) crossed with mesh fault levels (calm, lossy
    links, scheduled partitions severing the adversary's group from
    the bank).  Per cell: goodput and bounce refunds, audit rounds
    completed/deferred and quorum absences, when the adversary is
    first implicated and first convicted (strict majority of present
    peers — never the §4.4 investigation fallback), honest ISPs
    implicated vs convicted, and the e-penny residue.  The last two
    must be zero in every cell ({!Cell.run} fails the run otherwise):
    no honest ISP is convicted, and every tamper is balance-neutral.

    [full] raises the grid to 100 ISPs × 1000 users per cell (the
    nightly configuration); the default is 10 × 100. *)

val run :
  ?obs:Obs.Run.t ->
  ?persist:Checkpoint.t ->
  ?seed:int ->
  ?full:bool ->
  unit ->
  Sim.Table.t list
