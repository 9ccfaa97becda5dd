(** Plain-text table rendering for experiment output.

    Every experiment harness produces a {!t}; benches, examples and the
    CLI all print through {!print} so tables look identical everywhere. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption and column headers. *)

val add_row : t -> string list -> unit
(** Append a row.
    @raise Invalid_argument if the arity differs from the header. *)

val rows : t -> string list list
(** Rows in insertion order. *)

val cell : float -> string
(** Canonical compact formatting for numeric cells ([%.4g]). *)

val cell_int : int -> string
val cell_pct : float -> string
(** Format a ratio in [\[0,1\]] as a percentage with two decimals. *)

val cell_money : float -> string
(** Format a dollar amount, e.g. [$12.34]. *)

val pp : Format.formatter -> t -> unit
(** Render with aligned columns, a rule under the header, and the title
    above. *)

val print : t -> unit
(** [pp] to standard output followed by a blank line. *)
