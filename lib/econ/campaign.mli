(** Spam-campaign economics.

    A campaign is a bulk mailer with a mailing list, a response rate and
    a revenue per response.  §1.2 of the paper argues that pricing email
    at one e-penny ($0.01) raises a spammer's marginal cost by at least
    two orders of magnitude over today's ~$10⁻⁴/message botnet cost, so
    "the response rate required to break even will increase similarly".
    These types make that argument computable. *)

type t = {
  id : int;
  list_size : int;  (** Recipients per blast. *)
  blasts_per_month : int;
  response_rate : float;  (** Fraction of delivered spam that converts. *)
  value_per_response : float;  (** Revenue per conversion, in dollars. *)
  infra_cost_per_message : float;
      (** Pre-Zmail marginal sending cost in dollars (botnet rental,
          bandwidth). *)
}

val v :
  id:int -> list_size:int -> blasts_per_month:int -> response_rate:float ->
  value_per_response:float -> infra_cost_per_message:float -> t
(** Validating constructor.
    @raise Invalid_argument on non-positive sizes or rates outside
    sensible ranges. *)

val profit_per_message : t -> price:float -> float
(** Expected profit of one more message when sending costs [price]
    dollars: [response_rate *. value_per_response -. infra -. price]. *)

val viable : t -> price:float -> bool
(** A campaign keeps operating while its marginal profit is positive. *)

val monthly_volume : t -> int
(** Messages per month if the campaign runs: [list_size * blasts]. *)

val break_even_response_rate : value_per_response:float -> infra:float -> price:float -> float
(** The response rate at which profit per message is exactly zero. *)

(** Parameters for a synthetic campaign population.  Defaults are
    calibrated to the early-2000s figures the paper's citations imply:
    response rates log-normal around 3·10⁻⁴, revenue per response
    log-normal around $20, infra cost $10⁻⁴/message. *)
type population_params = {
  n : int;
  response_rate_mu : float;  (** log-space mean. *)
  response_rate_sigma : float;
  value_mu : float;
  value_sigma : float;
  list_size_mean : float;  (** Pareto-ish heavy tail. *)
  infra_cost : float;
}

val default_population : population_params

val population : Sim.Rng.t -> population_params -> t list
(** Draw [n] heterogeneous campaigns. *)

val pp : Format.formatter -> t -> unit
