(** RFC-822-style messages: a header block and a body, with the
    [X-Zmail-*] extension headers Zmail rides on.

    Header field names are case-insensitive; insertion order is
    preserved when rendering.  {!to_lines}/{!of_lines} round-trip, and
    the MTA applies SMTP dot-stuffing separately at the session layer. *)

type t

val make :
  from:Address.t ->
  to_:Address.t list ->
  ?subject:string ->
  ?headers:(string * string) list ->
  ?date:float ->
  body:string ->
  unit ->
  t
(** Build a message.  [date] is simulated seconds since the epoch and is
    rendered into a [Date] header.  Extra [headers] follow the standard
    ones. *)

val from : t -> Address.t option
(** Parsed [From] header, if present and well-formed. *)

val recipients : t -> Address.t list
(** Parsed [To] header addresses (comma separated). *)

val subject : t -> string option
val body : t -> string

val header : t -> string -> string option
(** [header t name] is the first value of field [name]
    (case-insensitive). *)

val headers : t -> (string * string) list
(** All fields in order. *)

val add_header : t -> string -> string -> t
(** Functional update appending a field. *)

val size_bytes : t -> int
(** Rendered size. *)

val decimal : int -> string
(** [decimal n] is [string_of_int n], byte for byte for every [int]
    (negatives and [min_int] included), rendered without the C
    runtime's [snprintf]: the header values Zmail stamps on every
    message are integers. *)

(** The Zmail extension headers (§1.3: Zmail changes no SMTP verb; all
    protocol information rides in the message header block). *)

val zmail_payment_header : string
(** ["X-Zmail-Payment"] — stamped by a compliant sending ISP with the
    e-penny amount attached to the message. *)

val zmail_ack_header : string
(** ["X-Zmail-Ack"] — marks the automatic mailing-list acknowledgment
    (§5); such messages are processed by the ISP and never delivered to
    a human inbox. *)

val zmail_epoch_header : string
(** ["X-Zmail-Epoch"] — the sending ISP's audit sequence number at the
    moment the message was charged.  The receiving ISP uses it to book
    the receive into the matching billing period when its own snapshot
    lags (e.g. after a crash), so the §4.4 audit never blames honest
    ISPs for mail that crossed an epoch boundary. *)

val mark_payment : ?epoch:int -> t -> epennies:int -> t
(** Append the payment header, and — when [epoch] is given — the epoch
    header after it, in one pass over the field list (both are stamped
    on every paid send). *)

val payment : t -> int option
val mark_ack : t -> of_id:string -> t
val ack_of : t -> string option
val mark_epoch : t -> seq:int -> t
val epoch : t -> int option

val message_id : t -> string option

val to_lines : t -> string list
(** Render as header lines, a blank line, then body lines. *)

val of_lines : string list -> (t, string) result
(** Parse the rendering back.  Fails on a malformed header line. *)

val to_string : t -> string
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
