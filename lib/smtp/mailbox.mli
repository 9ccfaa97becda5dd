(** Per-user mail stores for one MTA. *)

type t

val create : unit -> t

val deliver : t -> Address.t -> time:float -> Message.t -> unit
(** Append a message to the addressee's inbox (created on demand). *)

val messages : t -> Address.t -> Message.t list
(** Inbox contents, oldest first; empty for unknown users. *)

val count : t -> Address.t -> int

val total : t -> int
(** Messages across all inboxes. *)

val users : t -> Address.t list
(** Addresses that have received at least one message, sorted. *)

val clear : t -> Address.t -> unit
