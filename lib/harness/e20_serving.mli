(** E20 (serving) — tail latency of the serving path under offered
    load, clean and under mesh chaos.

    Each cell is a fresh 4-ISP world with [World.config.serving] set:
    remote deliveries flow through bounded per-lane admission queues
    into concurrent phase-by-phase SMTP sessions ({!Serve.Dispatch}),
    and every completion lands its first-admission-to-completion
    latency in a per-class histogram ({!Serve.Slo}).  The sweep offers
    a fixed Poisson send budget at rates from well below the lanes'
    aggregate service capacity to past it; the chaos variant repeats
    the sweep over a lossy mesh, where lost connections tempfail into
    the MTA's capped-backoff retry queue and re-enter admission — the
    retry-storm regime that collapses the tail first.

    Per cell the experiment asserts exact conservation (zero e-penny
    residue: backpressure refunds, retry bounces and chaos refunds all
    unwind) and reports p50/p99/p999 per class
    (paid/unpaid/bounced/retried).  One non-compliant ISP keeps the
    Unpaid class populated.  The three online invariant checkers watch
    every cell, and each cell drives through checkpoint/resume when
    [persist] is active. *)

val run :
  ?obs:Obs.Run.t ->
  ?persist:Checkpoint.t ->
  ?seed:int ->
  ?full:bool ->
  unit ->
  Sim.Table.t list
(** The experiment: the four-load sweep twice (calm mesh, chaos mesh);
    [full] adds a deeper-overload "1.5x" row to both.  Returns the
    admission summary table and the per-class latency table. *)
