type klass = Paid | Unpaid | Bounced | Retried

let classes = [ Paid; Unpaid; Bounced; Retried ]

let klass_name = function
  | Paid -> "paid"
  | Unpaid -> "unpaid"
  | Bounced -> "bounced"
  | Retried -> "retried"

type t = {
  paid : Loghist.t;
  unpaid : Loghist.t;
  bounced : Loghist.t;
  retried : Loghist.t;
}

let create () =
  {
    paid = Loghist.create ();
    unpaid = Loghist.create ();
    bounced = Loghist.create ();
    retried = Loghist.create ();
  }

let hist t = function
  | Paid -> t.paid
  | Unpaid -> t.unpaid
  | Bounced -> t.bounced
  | Retried -> t.retried

(* [Retried] wins over the payment split: a delivery that needed more
   than one session attempt is the tail the SLO is hunting, whether or
   not it carried postage. *)
let class_of_delivery ~attempt ~paid =
  if attempt > 0 then Retried else if paid then Paid else Unpaid

let record t klass ~latency = Loghist.add (hist t klass) latency
let count t klass = Loghist.count (hist t klass)
let quantile t klass q = Loghist.quantile (hist t klass) q

let register t metrics =
  List.iter
    (fun k ->
      let name = "serve.slo." ^ klass_name k in
      Obs.Metrics.gauge metrics (name ^ ".count") (fun () ->
          float_of_int (count t k));
      List.iter
        (fun (suffix, q) ->
          Obs.Metrics.gauge metrics (name ^ suffix) (fun () ->
              let v = quantile t k q in
              if Float.is_nan v then 0. else v))
        [ (".p50", 0.5); (".p99", 0.99); (".p999", 0.999) ])
    classes

let encode_state w t = List.iter (fun k -> Loghist.encode_state w (hist t k)) classes
