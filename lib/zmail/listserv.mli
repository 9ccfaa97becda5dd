(** Mailing-list distributor with e-penny acknowledgments (§5).

    Under Zmail a list post costs the distributor one e-penny per
    subscriber.  The paper's remedy is an automatic acknowledgment
    message, generated by the receiver's ISP or client, that returns
    the e-penny to the distributor — and doubles as a liveness probe:
    addresses that stop acknowledging are pruned, keeping the
    subscriber database clean.

    This module is the distributor's state: subscriber set, per-post
    cost accounting, expected/received acknowledgments and the pruning
    rule.  {!World} wires it to real MTA traffic; the E7 harness also
    drives it directly. *)

type t

val create : list_id:string -> address:Smtp.Address.t -> t
(** [list_id] tags outgoing posts (and is echoed by acks);
    [address] is the distributor's own mailbox.
    @raise Invalid_argument if [list_id] is not a valid header value
    ({!Smtp.Message.check_header}). *)

val address : t -> Smtp.Address.t

val subscribe : t -> Smtp.Address.t -> unit
(** Idempotent. *)

val unsubscribe : t -> Smtp.Address.t -> unit
val subscribers : t -> Smtp.Address.t list
(** Sorted. *)

val subscriber_count : t -> int

val distribute : t -> body:string -> ?date:float -> unit -> (Smtp.Address.t * Smtp.Message.t) list
(** Expand one inbound post: one message per subscriber, stamped with
    the list id (via {!Smtp.Message.zmail_ack_header}'s request
    convention: a [List-Id] header that receiving ISPs answer).  Each
    expansion charges the distributor one e-penny per recipient in the
    local accounting. *)

val on_ack : t -> from:Smtp.Address.t -> list_id:string -> bool
(** An acknowledgment arrived.  [true] if it matches a subscriber and
    this list: refunds one e-penny and resets the subscriber's missed
    counter. *)

val note_post_complete : t -> unit
(** Close the acknowledgment window for the latest post: subscribers
    that did not ack get a missed mark.  Call once acks have had time
    to return (the harness decides how long). *)

val prune : t -> max_missed:int -> Smtp.Address.t list
(** Remove and return subscribers whose consecutive missed-ack count
    reached [max_missed]. *)

val epennies_spent : t -> int
val epennies_refunded : t -> int
val net_cost : t -> int
(** [spent - refunded]. *)
