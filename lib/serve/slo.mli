(** Per-message-class latency SLOs.

    One {!Loghist} per class, fed by {!Dispatch} with the
    submission-to-completion sim latency of every remote delivery the
    serving path finishes (mailbox write or bounce).  Latency is
    measured from {e first} admission, so a delivery that burned three
    backoffs reports the whole ordeal, not the last session. *)

type klass =
  | Paid  (** Delivered on the first attempt, carrying postage. *)
  | Unpaid  (** Delivered on the first attempt, no payment header. *)
  | Bounced  (** Abandoned: latency to the bounce decision. *)
  | Retried
      (** Delivered after at least one tempfail — the retry-storm tail.
          Wins over the payment split. *)

val classes : klass list
(** In declaration order (also the encoding order). *)

val klass_name : klass -> string

val class_of_delivery : attempt:int -> paid:bool -> klass
(** The class of a {e delivered} message: [Retried] when [attempt > 0],
    otherwise [Paid]/[Unpaid]. *)

type t

val create : unit -> t
val record : t -> klass -> latency:float -> unit
val count : t -> klass -> int

val quantile : t -> klass -> float -> float
(** In seconds; [nan] when the class is empty.  Error bound: see
    {!Loghist.quantile} (within a factor of ~1.12 anywhere in range). *)

val register : t -> Obs.Metrics.t -> unit
(** Register [serve.slo.<class>.{count,p50,p99,p999}] gauges (empty
    classes read 0). *)

val encode_state : Persist.Codec.W.t -> t -> unit
(** All four histograms, in {!classes} order. *)
