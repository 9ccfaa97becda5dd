(** Metric registry.

    A registry names every counter, gauge, summary and series a
    component exposes, so the whole set can be enumerated and
    dumped as one table instead of each module printing its own ad-hoc
    numbers.  Instruments are the ones from {!Sim.Stats}; the registry
    only owns the naming and the dump.

    [counter]/[summary]/[series] are get-or-create: asking
    twice for the same name returns the same instrument (and raises
    [Invalid_argument] if the name is already bound to a different
    kind).  Existing instruments created elsewhere can be adopted with
    {!adopt_counter}. *)

type t

val create : unit -> t

val counter : t -> string -> Sim.Stats.Counter.t
(** Get or create the named counter. *)

val adopt_counter : t -> ?name:string -> Sim.Stats.Counter.t -> unit
(** Register an existing counter under [name] (default: the counter's
    own label).  Re-adopting the same counter under the same name is a
    no-op. *)

val gauge : t -> string -> (unit -> float) -> unit
(** Register a gauge: a closure sampled at dump time.  Registering the
    same name again replaces the closure. *)

val summary : t -> string -> Sim.Stats.Summary.t

val series : t -> string -> Sim.Stats.Series.t

val names : t -> string list
(** All registered names, sorted. *)

val to_table : t -> Sim.Table.t
(** One row per metric: name, kind, value, detail (mean for summaries,
    last sample for series). *)
