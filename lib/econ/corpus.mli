(** Synthetic labelled email corpus for the filtering baselines (E8).

    Generates ham and spam token streams from overlapping vocabularies,
    with an adversarial knob: spammers misspell their most incriminating
    tokens ("viagra" → "v1agra") with some probability, which is the
    evasion §2.2 of the paper says always eventually defeats content
    filters. *)

type label = Ham | Spam

type document = { label : label; tokens : string list }

type params = {
  n : int;
  spam_fraction : float;
  tokens_per_message : int;
  misspell_probability : float;
      (** Chance each spammy token in a spam message is obfuscated. *)
  newsletter_fraction : float;
      (** Fraction of {e ham} written in commercial-newsletter style
          (heavy overlap with the spam vocabulary) — the messages §2.2
          says filters misclassify.  Train/test distribution shift on
          this knob is what produces realistic false positives. *)
}

val default_params : params

val generate : Sim.Rng.t -> params -> document list
(** Draw [n] labelled documents. *)

val misspell : Sim.Rng.t -> string -> string
(** One obfuscation step: leetspeak substitution or an inserted
    punctuation mark; always returns a token different from the
    input for tokens of length >= 2. *)

val ham_vocabulary : string array
val spam_vocabulary : string array
