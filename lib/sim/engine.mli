(** Discrete-event simulation engine.

    An engine owns a virtual clock and an event queue.  Callbacks are run
    in non-decreasing time order; events scheduled for the same instant
    run in scheduling order.  Time is a [float] whose unit is chosen by
    the caller — this repository uses seconds of simulated time
    throughout, with helper constants in {!val-minute}, {!val-hour} and
    {!val-day}. *)

type t
(** An engine instance. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] returns an engine whose {!rng} is seeded with
    [seed] (default [0]). *)

val now : t -> float
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root generator.  Components should {!Rng.split} from it
    at construction so their random streams are independent. *)

val schedule : t -> at:float -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at] is before {!now} or NaN. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] runs [f] [delay] time units from now.
    Negative and NaN delays are rejected. *)

val every : t -> ?start:float -> period:float -> (unit -> unit) -> handle
(** [every t ~start ~period f] runs [f] at [start] (default
    [now t +. period]) and then every [period] units, until cancelled.
    The returned handle cancels the whole recurrence.  Recurrences are
    {e background} events: they fire during [run ~until], but a plain
    {!run} does not wait for them (they would never drain).
    @raise Invalid_argument if [period] is not positive (NaN included)
    or the first occurrence is before {!now} or NaN. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; cancelling a fired or already-cancelled
    event is a no-op. *)

val pending : t -> int
(** Number of heap entries still queued.  Cancellation is lazy: a
    cancelled event stays in the heap as a {e stub} until its time
    comes and it is discarded, so [pending] over-counts by the number
    of undrained stubs.  Use {!live} for the number of events that
    will actually run. *)

val live : t -> int
(** [pending t] minus the cancelled stubs — the events that will still
    execute.  This is what a queue-depth gauge should report. *)

val events_fired : t -> int
(** Number of callbacks executed so far (cancelled stubs excluded). *)

val set_monitor : t -> (id:int -> at:float -> wall:float -> unit) option -> unit
(** Install (or clear) an event-loop hook called after every executed
    callback with its scheduled time and wall-clock duration in seconds,
    read from the monotonic clock (so it is elapsed time, not CPU time,
    and other domains' work does not count).  Costs nothing when
    [None]. *)

val step : t -> bool
(** Run the single next event.  Returns [false] when the queue is
    empty. *)

val run : ?until:float -> t -> unit
(** [run t] executes events until every one-shot event has drained
    (background recurrences from {!every} do not keep it alive);
    [run ~until t] stops once the next event would fire strictly after
    [until], and advances the clock to [until]. *)

val minute : float
val hour : float
val day : float
(** Convenience durations, in seconds. *)

val encode_state : Persist.Codec.W.t -> t -> unit
(** Capture clock, id/sequence counters, the root RNG and the pending
    event {e metadata} — (time, sequence, id, foreground) per queued
    entry plus cancellation marks.  Event callbacks are closures and
    are deliberately not serialized, and the capture is never decoded:
    a run resumes by deterministically re-creating the world (which
    rebuilds the same closures) and then byte-comparing this capture.
    See DESIGN.md §8. *)
