(** Per-ISP user bookkeeping (§4.1–§4.2): real-penny accounts, e-penny
    balances, the daily [sent]/[limit] guard, and the ISP's [avail]
    pool of e-pennies.

    All mutators validate their preconditions and preserve the
    conservation invariant that e-pennies are only ever moved, never
    created: [total_user_epennies + avail] changes only through the
    explicit pool operations ({!add_pool}/{!take_pool}, the bank
    interface) and the mail operations (one e-penny per paid
    message). *)

type t

type block =
  | Insufficient_balance  (** [balance = 0] (§4.1). *)
  | Daily_limit_reached  (** [sent >= limit] (§4.1, §5 zombies). *)

val create :
  n_users:int -> initial_balance:Epenny.amount -> initial_account:int ->
  daily_limit:int -> initial_avail:Epenny.amount -> t

val n_users : t -> int
val balance : t -> user:int -> Epenny.amount
val account : t -> user:int -> int
val sent_today : t -> user:int -> int
val limit : t -> user:int -> int
val set_limit : t -> user:int -> int -> unit
val avail : t -> Epenny.amount

val debit_send : t -> user:int -> (unit, block) result
(** Charge one e-penny and count one send; no-op on [Error]. *)

val credit_receive : t -> user:int -> unit
(** Award the receiving user one e-penny. *)

val user_buy : t -> user:int -> amount:Epenny.amount -> (unit, string) result
(** §4.2: move [amount] from the user's real account into e-pennies,
    drawing on the [avail] pool; fails if either side is short. *)

val user_sell : t -> user:int -> amount:Epenny.amount -> (unit, string) result

val add_pool : t -> Epenny.amount -> unit
(** Bank buy completed: grow [avail]. *)

val take_pool : t -> Epenny.amount -> (unit, string) result
(** Bank sell completed: shrink [avail]. *)

val reset_daily : t -> unit
(** §4.1: zero every [sent] counter at the end of the day. *)

val total_epennies : t -> Epenny.amount
(** Every user's e-penny balance plus [avail]. *)

val encode_state : Persist.Codec.W.t -> t -> unit
val restore_state : Persist.Codec.R.t -> t -> unit
(** Snapshot capture and in-place restore of every per-user array and
    the pool.  Restore raises [Persist.Codec.Corrupt] if the snapshot
    was taken over a different number of users. *)
