(** Header-based filtering — the §2.2 blacklist baseline.

    A blacklist of sending domains (MAPS-RBL style); the paper notes
    spammers evade blacklists by relaying through clean hosts, and E8
    models that evasion explicitly. *)

type t

val create : unit -> t
val ban_domain : t -> string -> unit

type verdict =
  | Reject_blacklisted
  | Accept_unknown  (** Not listed: passes (or goes on to a content filter). *)

val check : t -> sender:string -> verdict
(** [sender] is a full address string; the domain part is matched
    against the blacklist case-insensitively. *)
