(** Bounded admission queue: a fixed-capacity FIFO ring of pending
    remote deliveries for one directed MTA pair.

    A full queue never grows — {!push} reports [`Full] and counts the
    refusal; what happens next (a first admission is refused with
    backpressure, a re-admission is parked in the MTA retry queue) is
    {!Dispatch}'s decision. *)

type entry = {
  envelope : Smtp.Envelope.t;
  message : Smtp.Message.t;
  submitted : float;
      (** Sim time of first admission — latency is measured from here
          across every retry. *)
  attempt : int;  (** Session attempts already consumed. *)
}

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int
val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> entry -> [ `Ok | `Full ]
(** Append at the tail; [`Full] (counted in {!refused}) leaves the
    queue unchanged. *)

val pop : t -> entry option
(** Remove the head (oldest) entry. *)

val iter : t -> (entry -> unit) -> unit
(** Head-to-tail iteration, without consuming. *)

val admitted : t -> int
(** Total entries ever accepted by {!push}. *)

val refused : t -> int
(** Total pushes refused because the queue was full. *)

val encode_state : Persist.Codec.W.t -> t -> unit
(** Snapshot capture.  Entries carry live messages, so the encoding
    pins metadata only (admission time, attempt, wire size) — the mail
    itself is rebuilt by deterministic replay like every pending engine
    event. *)
