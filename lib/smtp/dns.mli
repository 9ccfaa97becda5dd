(** A miniature MX registry: maps mail domains to host identifiers.

    The simulated Internet registers each MTA's domains here; senders
    look up where to open an SMTP session, exactly as a real MTA
    resolves MX records. *)

type host = int
(** An opaque host identifier (the MTA's index in the simulation). *)

type t

val create : unit -> t

val register : t -> domain:string -> host -> unit
(** Bind [domain] to [host]; re-registering replaces the binding
    (domains are case-insensitive). *)

val lookup : t -> domain:string -> host option

val lookup_addr : t -> Address.t -> host option
(** Resolve by the address's interned domain ID (see
    {!Address.domain_id}): a bounds check and an array load, no string
    hashing.  Unknown IDs resolve to [None]. *)

val size : t -> int
