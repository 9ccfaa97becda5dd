(** Email-virus / zombie outbreak model (experiment E6).

    §5: a user-specified daily spending limit bounds the e-penny cost a
    zombie can inflict, blocks further outgoing mail for the day, and —
    because hitting the limit triggers a warning — becomes a detection
    mechanism for infected machines.  This model spreads a mass-mailing
    virus through a contact graph and measures how the limit changes
    liability, leakage and time-to-detection. *)

type params = {
  users : int;
  initially_infected : int;
  contacts_per_user : int;  (** Address-book size the virus mails. *)
  virus_sends_per_day : int;  (** Messages an infected machine attempts daily. *)
  infection_probability : float;  (** Per received virus message. *)
  daily_limit : int;  (** The Zmail ISP's [daily_limit]; [max_int] disables. *)
  legitimate_sends_per_day : int;
      (** The owner's own traffic, which shares the limit. *)
  disinfect_after_warning_days : int;
      (** Days from warning to cleanup (user reaction time). *)
  days : int;
}

val default_params : params

type day_point = {
  day : int;
  infected : int;
  detected : int;  (** Cumulative machines whose owners were warned. *)
  virus_sent : int;  (** Virus messages that left infected machines today. *)
  virus_blocked : int;  (** Attempts stopped by the daily limit today. *)
  legit_blocked : int;
      (** The owner's legitimate messages blocked because the zombie
          exhausted the limit (the mechanism's collateral cost). *)
}

type outcome = {
  series : day_point list;
  peak_infected : int;
  total_virus_delivered : int;
  max_user_liability_epennies : int;
      (** Worst per-user e-penny spend on virus traffic in one day. *)
  mean_detection_day : float;  (** [nan] if nothing was detected. *)
}

val simulate : Sim.Rng.t -> params -> outcome
