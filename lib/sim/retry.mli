(** Capped exponential backoff and the resend-until-settled loop.

    Every at-least-once exchange in the simulation — ISP↔bank
    buy/sell/audit traffic, inter-bank clearing transfers, SMTP session
    retries — waits [min(initial · factor{^attempt}, cap)] seconds
    before its next try.  This module is the one place that formula
    lives, and the one place its parameters are validated. *)

type policy = private { initial : float; factor : float; cap : float }

val policy : initial:float -> factor:float -> cap:float -> policy
(** @raise Invalid_argument unless [initial >= 0], [factor >= 1] and
    [cap >= 0], all finite (NaN and infinities are rejected). *)

val delay : policy -> attempt:int -> float
(** [delay p ~attempt] is [min(initial · factor{^attempt}, cap)] for
    [attempt >= 0]: the wait after the [attempt]-th transmission
    (counting from 0).  Saturates at [cap] however large [attempt]
    grows, and is never NaN (a zero [initial] stays zero).
    @raise Invalid_argument on a negative [attempt]. *)

val until_settled :
  Engine.t ->
  policy ->
  ?on_resend:(float -> unit) ->
  still:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [until_settled engine p ~still send] calls [send] now if [still ()]
    holds, then after each [delay p ~attempt] checks [still] again and,
    while it holds, calls [on_resend timeout] (with the timeout that
    just expired) and [send] once more.  [still] is the settlement
    predicate — the exchange's own acknowledgment state — so the loop
    needs no cancellation: the first timer to find it false ends the
    chain. *)
