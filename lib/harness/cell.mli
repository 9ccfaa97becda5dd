(** The machinery the world-backed experiment cells share.

    Every world an experiment builds ends here: {!finish} (or {!drain}
    for a world already driven) for the worlds that run until quiet,
    {!finish_live} for the few whose organic traffic never stops.
    E17–E21 offer their mail through the same self-rescheduling
    generator fleet ({!fleet}, {!zipf_fleet}); E17–E19 and E21 size the
    ISP pools to the population ({!pool}).  The adversary grids — E18
    (tampering ISPs), E19 part 1 (a hostile bank wire) and E21
    (collusion rings) — run each cell through {!run}: one world per
    (adversary × fault level), Zipf traffic, audits every 6 h for two
    days, and the §4.4 hard promises (no honest ISP convicted, zero
    e-penny residue) enforced before the experiment reads a single
    figure. *)

(** {1 Finishing a world}

    [name] heads every failure and every violation printed on stderr;
    [idle] names the checkers allowed to see nothing (default none: a
    checker that watched nothing proved nothing).  Each function
    detaches the checkers: cells share a tracer, so a checker left
    attached would judge the next cell's events against this cell's
    model. *)

val finish :
  name:string ->
  persist:Checkpoint.t ->
  ?label:string ->
  ?idle:string list ->
  days:float ->
  Zmail.World.t ->
  Obs.Invariant.t list ->
  unit
(** Drive the world [days] simulated days through [persist] (the
    segment is [label]), then {!drain}. *)

val drain :
  name:string -> ?idle:string list -> Zmail.World.t -> Obs.Invariant.t list -> unit
(** Run the world until quiet and check every invariant with
    [~quiescent:true]: the run has drained, so the checkers may also
    demand zero credits in flight.  A violation is printed on stderr
    with its trace context and re-raised.
    @raise Failure if the e-penny residue differs from what the
    world's cheaters minted (§3's zero-sum at quiescence), or if a
    checker outside [idle] never ran. *)

val finish_live :
  name:string ->
  persist:Checkpoint.t ->
  ?label:string ->
  ?idle:string list ->
  days:float ->
  Zmail.World.t ->
  Obs.Invariant.t list ->
  unit
(** {!finish} for a world whose traffic never drains (E2–E4's
    [attach_user_traffic]): drive [days], then check every invariant
    without [~quiescent] — mail is still in flight, so neither the
    in-flight count nor the residue can be demanded.
    @raise Failure if a checker outside [idle] never ran. *)

(** {1 Traffic} *)

val fleet :
  Sim.Engine.t ->
  generators:int ->
  total:int ->
  span:float ->
  spacing:float ->
  (unit -> unit) ->
  unit
(** Spread [total] calls of [send] over the first 90% of [span]
    seconds: [min generators total] generators, the [i]-th starting at
    [i *. spacing], each waiting an exponential gap (drawn from the
    engine's RNG) after every send.  The pending-event heap stays
    O(generators) rather than O(total). *)

val zipf_fleet :
  Zmail.World.t ->
  generators:int ->
  stride_from:int ->
  sends_per_user:int ->
  days:float ->
  (Zmail.World.send_result -> unit) ->
  unit
(** A {!fleet} (spacing 13 s) of [sends_per_user] sends per user over
    [days].  Each sender is a Zipf (s = 1.1) rank scattered over the
    global user space by the first stride [>= stride_from] coprime to
    the user count, so the heaviest senders land on arbitrary ISPs
    instead of piling onto ISP 0; each recipient is uniform among the
    other users.  Each send's result goes to the callback. *)

val rotation :
  Zmail.World.t ->
  sends_per_user:int ->
  days:float ->
  offset:float ->
  step:int ->
  (Zmail.World.send_result -> unit) ->
  unit
(** A finite, deterministic workload, so the run drains to quiescence
    and the residue check sees no mail in flight: global user [g]'s
    [k]-th of [sends_per_user] sends leaves at [k/sends_per_user] of
    [days] plus [g × offset] seconds, to user [g + step × k + 1] (the
    next one if that is [g]).  Each send's result goes to the
    callback. *)

(** {1 Worlds} *)

val pool : Zmail.World.config -> Zmail.Isp.config -> Zmail.Isp.config
(** The ISP pool sized to the world's population: with [u] the larger
    of [users_per_isp] and half a {!Zmail.World.auto_topup}, pool bounds
    [u]/[20 × u], starting at [2 × u] (so the pool can always serve
    one top-up) and refilling [5 × u] at a time.  Heavy senders keep
    crossing [minavail] (the buy/sell loop and its exactly-once checker
    stay live) and a block means the kernel said no, not that the pool
    ran dry.  The daily limit is lifted out of the way: a Zipf head
    sender would otherwise measure the zombie throttle (E6). *)

(** {1 The adversary grids} *)

val days : float
(** Simulated days of traffic per grid cell (2). *)

val audit_period : float
(** Seconds between audit rounds (6 h). *)

type fault_level = {
  flabel : string;
  mesh : Sim.Fault.plan;  (** Every link's default plan. *)
  partitioned : bool;  (** Whether the partition windows apply. *)
}

val calm : fault_level
val lossy : fault_level

val partitioned : fault_level
(** Light loss plus two partition windows that sever the grid's
    [severed] ISPs from the bank and everyone else: 0.3–0.95 d (the
    0.5 d and 0.75 d audit rounds, so the carry matrix accumulates
    across a multi-round lag) and 0.1 d around the 1.5 d round after a
    healed interval. *)

val first_heal : float
(** When the first partition window heals (0.95 d). *)

val day_of : float option -> string
(** A detection time as a table cell: ["day 0.26"], or ["never"]. *)

type grid = {
  name : string;  (** The experiment, for failure messages. *)
  tracer : Obs.Trace.t;
  persist : Checkpoint.t;
  n_isps : int;
  users_per_isp : int;
  sends_per_user : int;
  severed : int list;  (** The ISPs a partition window cuts off. *)
}

type t = {
  world : Zmail.World.t;
  attempts : int;  (** Sends the Zipf fleet offered. *)
  paid : int;
  audits : (float * Zmail.Bank.audit_result) list;  (** Timed, oldest first. *)
}

val run :
  grid ->
  seed:int ->
  fault_level ->
  label:string ->
  ?configure:(Zmail.World.config -> Zmail.World.config) ->
  ?arm:(Zmail.World.t -> unit) ->
  ?traffic:(Zmail.World.t -> unit) ->
  ?convicted:(Zmail.World.t -> Zmail.Bank.audit_result -> int list) ->
  ?adversaries:int list ->
  unit ->
  t
(** One grid cell: a world with the grid's scale, [audit_period],
    [retain_mail = false], the fault level's mesh and windows and the
    population-sized {!pool}, passed through [configure]; then [arm]
    (adversary registration, which must precede the checkers so the
    honest mask excludes the tamperers), the invariant checkers, the
    Zipf fleet (16 generators, strides from 97), [traffic] (extra load
    scheduled after the fleet), and {!finish} over [days + 0.5].  No
    grid world has a cheater, so {!drain} demands zero residue.
    @raise Failure if any audit round's [convicted] (default: the
    bank's [convicted]) names an ISP outside [adversaries] (default
    none): the §4.4 promise. *)

val tables : Obs.Run.t -> Sim.Table.t list -> Sim.Table.t list -> Sim.Table.t list
(** [tables obs ts metrics] is [ts], followed under [--metrics] by the
    last of the cells' [metrics] registries. *)
