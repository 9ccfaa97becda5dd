(** SMTP reply lines (RFC 821 §4.2): a three-digit code and text. *)

type t = { code : int; text : string }

val v : int -> string -> t
(** @raise Invalid_argument unless the code is a valid three-digit SMTP
    code (first digit 2–5). *)

(** Common replies, named after their RFC 821 meanings. *)

val service_ready : hostname:string -> t (* 220 *)
val closing : hostname:string -> t (* 221 *)
val completed : t (* 250 OK *)
val completed_text : string -> t (* 250 with custom text *)
val start_mail_input : t (* 354 *)
val service_unavailable : t (* 421 *)
val syntax_error : t (* 500 *)
val bad_sequence : t (* 503 *)
val mailbox_unavailable : string -> t (* 550 *)
val transaction_failed : string -> t (* 554 *)

val is_positive : t -> bool
(** 2xx or 3xx. *)

val is_transient_failure : t -> bool
(** 4xx — retrying later may succeed. *)

val to_line : t -> string
val of_line : string -> (t, string) result
val equal : t -> t -> bool
