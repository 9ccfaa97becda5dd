(** Email addresses of the form [local@domain].

    Parsing is deliberately stricter than RFC 5321 (no quoting, no
    source routes): the simulator only ever generates the simple form,
    and strictness catches generator bugs early.

    Every address also carries its domain's {e interned ID} — a dense
    non-negative integer assigned process-wide, content-keyed on the
    lowercased domain string.  Domains number in the hundreds while
    addresses are constructed millions of times, so routing layers key
    arrays by {!domain_id} instead of hashing domain strings per
    delivery (see DESIGN.md §9). *)

type t = private { local : string; domain : string; domain_id : int }

val v : local:string -> domain:string -> t
(** Build an address.
    @raise Invalid_argument if either part is empty or contains
    characters outside [A-Za-z0-9._+-]. *)

val unsafe_of_parts : local:string -> domain:string -> domain_id:int -> t
(** Build an address {e without} validating, lowercasing or interning —
    for hot paths constructing addresses from parts already known to be
    valid and lowercase, with [domain_id = intern_domain domain]
    precomputed (e.g. a world's per-ISP tables).  Feeding it anything
    else produces an address that violates this module's invariants. *)

val of_string : string -> (t, string) result
(** Parse ["local@domain"]. *)

val of_sub : string -> pos:int -> len:int -> (t, string) result
(** [of_sub s ~pos ~len] is [of_string (String.sub s pos len)], errors
    included, read in place: only the local part and the domain are
    copied out.
    @raise Invalid_argument if the slice is not inside [s]. *)

val of_rendering : string -> pos:int -> len:int -> t option
(** [of_rendering s ~pos ~len] is the address whose {!to_string} is
    exactly the [len] bytes of [s] at [pos], if there is one: a valid
    local part, ['@'] and a valid {e lowercase} domain.  The bytes are
    checked in place; strings are built only for a match. *)

val of_string_exn : string -> t

val to_string : t -> string

val local : t -> string
val domain : t -> string

val domain_id : t -> int
(** The interned ID of this address's (lowercased) domain.  Equal
    domains always yield equal IDs within a process; IDs are dense from
    0 in first-interning order.  Not stable across processes — never
    serialize one. *)

val intern_domain : string -> int
(** Intern an (already lowercase) domain string, returning its dense
    ID.  Idempotent. *)

val lowercase_if_needed : string -> string
(** [String.lowercase_ascii] that returns its argument physically
    unchanged when it contains no uppercase ASCII — the common case
    for generated domains, saving a copy per call. *)

val interned_domains : unit -> int
(** Number of distinct domains interned so far (= the exclusive upper
    bound of all live IDs). *)

val interned_domain : int -> string
(** The domain string behind an ID.
    @raise Invalid_argument on an ID never returned by
    {!intern_domain}. *)

val equal : t -> t -> bool
(** Case-insensitive on the domain, case-sensitive on the local part
    (the common conservative interpretation). *)

val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
