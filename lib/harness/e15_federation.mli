(** E15 (extension) — distributed banks and inter-bank clearing.

    §5 ("Bank Setup"): "the role of the bank in the Zmail protocol can
    be implemented as a set of distributed banks".  This experiment is
    a {!Zmail.World} whose ISPs bank at two member banks, with
    asymmetric cross-bank mail flow.  It shows the cash imbalance that
    e-penny migration creates, the clearing transfers that fix it, and
    the daily audits that check pairs across the bank line. *)

val run : ?seed:int -> unit -> Sim.Table.t list

(** {1 The traffic shape, shared with E19's federation column} *)

val config : seed:int -> Zmail.Federation.config -> Zmail.World.config
(** A world on these banks: five users per ISP, daily audits, and lean
    pools with generous limits, so pools trade with their banks. *)

val attach_flow :
  Zmail.World.t -> rng:Sim.Rng.t -> days:int -> senders:int list ->
  receivers:int list -> forward:int -> reverse:int -> unit
(** Schedule [days] days of paid mail: each day [forward] messages from
    a random sender ISP to a random receiver ISP and [reverse] back,
    then every user above 450 e-pennies sells down to 400 into its ISP
    pool. *)
