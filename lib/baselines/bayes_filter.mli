(** Naive-Bayes content filter — the §2.2 "content based filtering"
    baseline (Sahami et al. style).

    Multinomial naive Bayes over tokens with Laplace smoothing.  E8
    trains it on a clean corpus and evaluates it on an adversarial one
    to reproduce the paper's claim that misspelling evades content
    filters while false positives persist. *)

type t

val create : unit -> t

val train_all : t -> Econ.Corpus.document list -> unit

val spam_probability : t -> string list -> float
(** Posterior probability that a token list is spam; 0.5 when the
    filter has seen no training data. *)

val classify : ?threshold:float -> t -> string list -> Econ.Corpus.label
(** Label by thresholding {!spam_probability} (default threshold
    [0.9], the conservative setting real deployments use to limit
    false positives). *)

type evaluation = {
  true_positives : int;  (** Spam flagged as spam. *)
  false_positives : int;  (** Ham flagged as spam — the §2.2 disaster case. *)
  true_negatives : int;
  false_negatives : int;  (** Spam delivered. *)
}

val evaluate : ?threshold:float -> t -> Econ.Corpus.document list -> evaluation

val recall : evaluation -> float
(** Fraction of spam caught; 0 when there was no spam. *)

val false_positive_rate : evaluation -> float
(** Fraction of ham wrongly discarded; 0 when there was no ham. *)
