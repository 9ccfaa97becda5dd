(** Bounded exhaustive state-space exploration of {!Spec} protocols.

    Breadth-first search over global states (all process states plus
    all channel contents).  At every reached state a user invariant is
    checked; the first violation is reported with the action trace that
    leads to it.  This is how the repository {e verifies} the paper's
    §4 claims (zero-sum conservation, credit antisymmetry, replay
    safety) for small configurations, rather than merely asserting them
    on a handful of runs. *)

type ('s, 'm) global = {
  states : 's array;  (** Process states, indexed by pid. *)
  chans : 'm list array array;
      (** [chans.(src).(dst)] is the channel contents, head first. *)
}

type ('s, 'm) outcome =
  | Exhausted of { visited : int }
      (** Every reachable state (within the depth bound none was cut)
          satisfied the invariant. *)
  | Bounded of { visited : int }
      (** No violation found, but the walk was truncated by
          [max_states] or [max_depth]. *)
  | Violation of { trace : string list; state : ('s, 'm) global; detail : string }
      (** An invariant failure: the action names leading to the bad
          state, the state itself, and the invariant's explanation. *)

val initial : ('s, 'm) Spec.protocol -> ('s, 'm) global
(** The protocol's initial global state (all channels empty). *)

val run :
  ?max_states:int ->
  ?max_depth:int ->
  invariant:(('s, 'm) global -> (unit, string) result) ->
  ('s, 'm) Spec.protocol ->
  ('s, 'm) outcome
(** [run ~invariant protocol] explores breadth-first from the initial
    state.  Defaults: [max_states = 100_000], [max_depth] unbounded.
    The state and message types must support structural equality and
    hashing. *)
