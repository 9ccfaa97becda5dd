(** A sparse credit row over [n] peers: peer index -> non-zero count.

    The sparse audit engine's base representation.  Zero cells are
    never stored, so memory and scan cost follow the {e populated} cell
    count (∝ traffic partners under a Zipf workload), not [n].  Every
    deterministic export — wire rows, snapshot bytes, audit input —
    goes through {!pairs}, the canonical sorted non-zero form, so hash
    iteration order never reaches an observable byte. *)

type t

val create : n:int -> t
(** An all-zero row.  @raise Invalid_argument if [n <= 0]. *)

val get : t -> int -> int
(** [get t peer] is the cell value ([0] when unpopulated).
    @raise Invalid_argument when [peer] is outside [0..n-1]. *)

val set : t -> int -> int -> unit
(** Overwrite one cell; setting [0] removes it. *)

val add : t -> int -> int -> unit
(** [add t peer dv] adds [dv] to the cell, removing it when the result
    is zero. *)

val cardinal : t -> int
(** Populated (non-zero) cells. *)

val sum : t -> int
(** Sum of all cells — the row's net flow. *)

val iter : (int -> int -> unit) -> t -> unit
(** Iterate populated cells in {e unspecified} order.  Only for
    order-insensitive folds; anything observable must use {!pairs}. *)

val pairs : t -> (int * int) array
(** Canonical export: [(peer, value)] sorted by peer, non-zero values
    only.  Equal rows produce identical arrays. *)

val to_dense : t -> int array
(** Dense [n]-array copy, for small-world compatibility paths. *)

val of_dense : int array -> t

val add_row : t -> t -> unit
(** [add_row t src] adds every cell of [src] into [t].
    @raise Invalid_argument on a size mismatch. *)

val copy : t -> t
val clear : t -> unit

val equal : t -> t -> bool
(** Cell-wise equality (same [n], same populated cells). *)

val encode : Persist.Codec.W.t -> t -> unit
val restore : Persist.Codec.R.t -> n:int -> t
(** Persist as {!pairs} (canonical, so equal rows encode identically).
    [restore] builds a fresh row and raises [Persist.Codec.Corrupt] on
    an out-of-range or duplicate peer. *)
