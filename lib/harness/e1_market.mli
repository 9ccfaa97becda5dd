(** E1 — market forces against spam (§1.2).

    Paper claim: "The cost of sending spam will increase by at least
    two orders of magnitude … The response rate required to break even
    will increase similarly.  The amount of spam will undoubtedly
    decrease substantially."

    Sweeps the per-message price over a heterogeneous campaign
    population and reports who stays in business. *)

val run : ?seed:int -> unit -> Sim.Table.t list
