(** Randomized weakly-fair executor for {!Spec} protocols.

    Each step picks uniformly at random among all enabled actions and
    executes it atomically, which realises the notation's execution
    rules (one action at a time; an action whose guard is continuously
    true is eventually executed, with probability one).

    The executor can also inject channel faults through a {!tamper}
    hook, used by the replay-attack experiment (E11) to duplicate
    messages in flight. *)

type 'm tamper = src:Spec.pid -> dst:Spec.pid -> 'm -> 'm list
(** Applied to every sent message; the returned list is what actually
    enters the channel.  [fun ~src:_ ~dst:_ m -> [m]] is the faithful
    channel; [[]] drops; [[m; m]] duplicates (a replay). *)

type ('s, 'm) t

val create :
  ?seed:int -> ?tamper:'m tamper -> ?record_trace:bool -> ('s, 'm) Spec.protocol ->
  ('s, 'm) t
(** Build an executor in the protocol's initial state.  [record_trace]
    (default [false]) keeps the executed action sequence for
    inspection. *)

val state : ('s, 'm) t -> Spec.pid -> 's
(** Current state of a process. *)

val channel : ('s, 'm) t -> src:Spec.pid -> dst:Spec.pid -> 'm list
(** Channel contents, head first. *)

val inject : ('s, 'm) t -> src:Spec.pid -> dst:Spec.pid -> 'm -> unit
(** Append a message to a channel from outside the protocol (an
    adversary's forgery). *)

val enabled_count : ('s, 'm) t -> int
(** Number of currently enabled (process, action) candidates. *)

val run : ?max_steps:int -> ('s, 'm) t -> int * bool
(** [run t] steps until quiescence or until [max_steps] (default
    [100_000]) actions have run.  Returns [(steps_executed,
    quiescent)]. *)

val trace : ('s, 'm) t -> (Spec.pid * string) list
(** Executed [(process, action-name)] pairs in execution order; empty
    unless [record_trace] was set. *)
