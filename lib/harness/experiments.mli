(** Registry of every reproduction experiment.

    Each entry regenerates one of the quantitative claims catalogued in
    DESIGN.md §4 (the paper publishes no tables or figures of its own;
    these are its claims made measurable).  All experiments are
    deterministic for a given seed. *)

type t = {
  id : string;  (** ["e1"] … ["e22"]. *)
  title : string;
  claim : string;  (** The paper sentence being reproduced. *)
  run :
    full:bool ->
    seed:int ->
    obs:Obs.Run.t ->
    persist:Checkpoint.t ->
    domains:int option ->
    Sim.Table.t list;
      (** [full] asks for the experiment's nightly-scale variant (E17's
          million-user row, E18's and E19's 100-ISP grids); most
          experiments have no such variant and ignore it.  [obs] is the
          front end's observability context: a shared tracer to record
          into (exported afterwards by the caller) and whether to
          append the metric-registry table.  The world-backed
          experiments honour it; the rest ignore it.  Pass
          {!Obs.Run.none} when not tracing.  [persist] is the
          checkpoint/resume driver (E2-E4, E16-E21 and E23 honour it;
          E19's federation cells are pure functions of their seed and
          re-execute identically on resume; the rest ignore it, which
          {!Checkpoint.finished} reports as an error).  [domains] is
          the [--domains] axis: E17 switches to its sharded
          {!Zmail.Parworld} variant and E22 steps its multi-domain leg
          on that many domains; every other experiment ignores it, and
          stdout never depends on its value ([None] vs [Some _] may
          select a different variant, but [Some 1] and [Some 4] are
          byte-identical — the CI multi-domain lane enforces this). *)
}

val all : t list
(** In id order. *)

val find : string -> t option
(** Case-insensitive lookup by id. *)

val run_all :
  ?seed:int -> ?full:bool -> ?obs:Obs.Run.t -> ?domains:int -> unit ->
  (unit, string) result
(** Run every experiment, printing each table to stdout.  [Error] before
    any output when [domains] is below 1. *)

val run_one :
  ?seed:int -> ?full:bool -> ?obs:Obs.Run.t -> ?persist:Checkpoint.t ->
  ?domains:int -> string -> (unit, string) result
(** Run and print a single experiment by id.  [Error] before any output
    for an unknown id or a [domains] below 1.
    @raise Checkpoint.Stopped when [persist] hits its stop point. *)
