type t = {
  id : int;
  list_size : int;
  blasts_per_month : int;
  response_rate : float;
  value_per_response : float;
  infra_cost_per_message : float;
}

let v ~id ~list_size ~blasts_per_month ~response_rate ~value_per_response
    ~infra_cost_per_message =
  if list_size <= 0 then invalid_arg "Campaign.v: list_size must be positive";
  if blasts_per_month <= 0 then invalid_arg "Campaign.v: blasts_per_month must be positive";
  if response_rate < 0. || response_rate > 1. then
    invalid_arg "Campaign.v: response_rate must be in [0, 1]";
  if value_per_response < 0. then invalid_arg "Campaign.v: negative value_per_response";
  if infra_cost_per_message < 0. then invalid_arg "Campaign.v: negative infra cost";
  { id; list_size; blasts_per_month; response_rate; value_per_response;
    infra_cost_per_message }

let profit_per_message t ~price =
  (t.response_rate *. t.value_per_response) -. t.infra_cost_per_message -. price

let viable t ~price = profit_per_message t ~price > 0.

let monthly_volume t = t.list_size * t.blasts_per_month

let break_even_response_rate ~value_per_response ~infra ~price =
  if value_per_response <= 0. then infinity else (infra +. price) /. value_per_response

type population_params = {
  n : int;
  response_rate_mu : float;
  response_rate_sigma : float;
  value_mu : float;
  value_sigma : float;
  list_size_mean : float;
  infra_cost : float;
}

let default_population =
  {
    n = 200;
    (* ln 1e-4 ~ -9.21: median campaign converts 0.01% of recipients,
       in line with early-2000s bulk-mail estimates. *)
    response_rate_mu = -9.21;
    response_rate_sigma = 0.8;
    (* ln 15 ~ 2.7: median ~$15 of revenue per response. *)
    value_mu = 2.7;
    value_sigma = 0.6;
    list_size_mean = 100_000.;
    infra_cost = 1e-4;
  }

let population rng p =
  List.init p.n (fun id ->
      let response_rate =
        Float.min 1.0
          (Sim.Dist.lognormal rng ~mu:p.response_rate_mu ~sigma:p.response_rate_sigma)
      in
      let value_per_response =
        Sim.Dist.lognormal rng ~mu:p.value_mu ~sigma:p.value_sigma
      in
      let list_size =
        (* Heavy-tailed list sizes: a few very large operations.  Shape
           2.2 keeps the variance finite so volume sweeps are stable. *)
        let shape = 2.2 in
        let scale = p.list_size_mean *. (shape -. 1.) /. shape in
        int_of_float (Sim.Dist.pareto rng ~scale ~shape)
      in
      let blasts_per_month = Sim.Dist.uniform_int rng ~lo:1 ~hi:8 in
      v ~id ~list_size:(max 1 list_size) ~blasts_per_month ~response_rate
        ~value_per_response ~infra_cost_per_message:p.infra_cost)
