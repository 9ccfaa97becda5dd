(** Cycle-sum collusion detection over the sparse claim graph.

    Closes the pairwise soundness gap of the §4.4 audit: colluders who
    keep their own mutual entries antisymmetric while jointly cheating
    a third party evade per-pair checks and frame the honest victim.
    The detector walks each victim-centered star of violating edges and
    looks for the minimal cycle signature — a subset of accusers whose
    discrepancies sum to zero (coordinated lies cancel) and who are
    linked among themselves by {e consistent non-silent} claim edges
    (the fabricated coordination fabric; see
    {!Verify.consistent_nonzero}).  Members of such a cycle are
    convicted and the center is cleared.  A lone liar never matches:
    its star's discrepancies share the sign of its lie, and its honest
    accusers have no fabricated mutual edge.

    Longer collusion rings (k members rotating lies across k victims)
    decompose into one minimal cycle per victim, so the per-vertex scan
    convicts every member without enumerating long cycles. *)

type ring = {
  members : int list;  (** Convicted cycle members, ascending. *)
  through : int;  (** The honest center the pairwise check framed. *)
  residue : int;  (** Lied volume routed through the center: sum of
                      absolute discrepancies of the cycle's violating
                      edges. *)
}

val detect :
  violations:Verify.violation list ->
  offenders:int list ->
  connected:(int -> int -> bool) ->
  ring list
(** [detect ~violations ~offenders ~connected] returns the rings found
    in one audit round, ordered by center.  [offenders] are the
    strict-majority convictions ({!Verify.offenders}); edges incident
    to them are explained by their own lie and excluded, so a noisy
    majority liar cannot manufacture false rings through honest peers.
    [connected a b] must answer the coordination-edge predicate
    (typically {!Verify.consistent_nonzero} on the same round). *)

val convicted : ring list -> int list
(** Distinct ring members, ascending. *)

val cleared : ring list -> int list
(** Ring centers not themselves convicted by some other ring:
    the framed honest third parties, ascending. *)

val attribute : suspects:int list -> ring list -> int list
(** Fold ring attribution into a pairwise suspect list: add every
    convicted member, remove every cleared center, sort and dedup. *)
