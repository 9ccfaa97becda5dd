(** SMTP commands (RFC 821 §4.1) and their wire form. *)

type t =
  | Helo of string  (** HELO <hostname> *)
  | Mail_from of Address.t  (** MAIL FROM:<address> *)
  | Rcpt_to of Address.t  (** RCPT TO:<address> *)
  | Data
  | Rset
  | Noop
  | Quit
  | Vrfy of string

val to_line : t -> string
(** The wire line, built in one allocation for every verb. *)

val of_line : string -> (t, string) result
(** Parse a command line; verbs are case-insensitive, as RFC 821
    requires.  The line is read in place as if [String.trim]med: verbs
    are matched without an upper-cased copy, and only the argument is
    allocated (the host of HELO/EHLO/VRFY, or the path of MAIL/RCPT
    read by {!Address.of_sub}, bare or in angle brackets). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
