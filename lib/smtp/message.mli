(** RFC-822-style messages: a header block and a body, with the
    [X-Zmail-*] stamps Zmail rides on.

    A message is its generic header fields, in insertion order, plus one
    typed slot per stamp: the mailing-list acknowledgment, the payment
    and its epoch, the [Message-Id] and the [Received] stamp.  Every
    field is validated once, when it enters the message, so rendering
    and re-parsing is exact: [of_lines (to_lines m) = Ok m] for every
    message.  The stamps are rendered only when the message is written
    out ({!to_lines}, {!to_string}, {!headers}, {!header}), after the
    generic fields and in the fixed order [X-Zmail-Ack],
    [X-Zmail-Payment], [X-Zmail-Epoch], [Message-Id], [Received].

    Header field names are case-insensitive.  A valid name is printable
    US-ASCII (33–126) without [':']; a valid value contains no CR, LF or
    NUL and has no leading or trailing space of [String.trim].  The
    stamp names — [X-Zmail-*], [Message-Id] and [Received], in any case
    — are reserved: only the stamp constructors set them.  The MTA
    applies SMTP dot-stuffing separately at the session layer. *)

type t

val make :
  from:Address.t ->
  to_:Address.t list ->
  ?subject:string ->
  ?date:float ->
  body:string ->
  unit ->
  (t, string) result
(** Build a message with [From], [To], [Subject] and [Date] fields, in
    that order.  [date] is simulated seconds since the epoch and is
    rendered into the [Date] header.  [Error] when [subject] is not a
    valid header value. *)

val make_exn :
  from:Address.t ->
  to_:Address.t list ->
  ?subject:string ->
  ?date:float ->
  body:string ->
  unit ->
  t
(** As {!make}.
    @raise Invalid_argument when {!make} returns [Error]. *)

val check_header : string -> string -> (unit, string) result
(** [check_header name value] is [Ok ()] when {!add_header} would accept
    the field, and otherwise the [Error] it would return, which names
    the header. *)

val add_header : t -> string -> string -> (t, string) result
(** Append a generic field.  [Error] for an invalid name or value, or a
    reserved stamp name. *)

val add_header_exn : t -> string -> string -> t
(** As {!add_header}.
    @raise Invalid_argument when {!add_header} returns [Error]. *)

val from : t -> Address.t option
(** Parsed [From] header, if present and well-formed. *)

val recipients : t -> Address.t list
(** Parsed [To] header addresses (comma separated). *)

val subject : t -> string option
val body : t -> string

val header : t -> string -> string option
(** [header t name] is the first value of field [name]
    (case-insensitive); a stamp name renders its slot. *)

val headers : t -> (string * string) list
(** All fields in rendering order: the generic fields, then the
    stamps. *)

val size_bytes : t -> int
(** Rendered size, [String.length (to_string t)], computed without
    rendering. *)

val decimal : int -> string
(** [decimal n] is [string_of_int n], byte for byte for every [int]
    (negatives and [min_int] included), rendered without the C
    runtime's [snprintf]. *)

val decimal_length : int -> int
(** [String.length (decimal n)], counted without rendering. *)

val put_decimal : bytes -> int -> int -> int -> unit
(** [put_decimal b pos (decimal_length n) n] writes [decimal n] into
    [b] at [pos], for callers that render several fields into one
    buffer.  Unchecked: the caller guarantees the bytes fit. *)

(** {1 Zmail stamps}

    §1.3: Zmail changes no SMTP verb; all protocol information rides in
    the message header block.  Each stamp has one constructor, which
    replaces any earlier value of its slot, and an O(1) reader. *)

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
(** Set the payment stamp and the epoch stamp ([None] without
    [epoch]).
    @raise Invalid_argument on a negative [epennies] or [epoch]. *)

val payment : t -> int option
val epoch : t -> int option

val mark_ack : t -> of_id:string -> t
(** Mark [t] as the acknowledgment of list [of_id].
    @raise Invalid_argument if [of_id] is not a valid header value. *)

val ack_of : t -> string option

val stamp_message_id : t -> string -> t
(** Set the [Message-Id].
    @raise Invalid_argument if the id is not a valid header value. *)

val message_id : t -> string option

val stamp_received : t -> from_domain:string -> by:string -> at:float -> t
(** Set the [Received] stamp, rendered as
    [Printf.sprintf "from %s by %s; t=%.3f" from_domain by at].  The
    time is kept in integer milliseconds, rounded as [%.3f] rounds.
    @raise Invalid_argument unless both hosts are non-empty printable
    tokens without space or [';'], and [0 <= at <= 1e15]. *)

(** {1 Wire form} *)

val to_lines : t -> string list
(** Render as header lines, a blank line, then body lines. *)

val of_lines : string list -> (t, string) result
(** Parse the rendering back, stamps into their slots.  [Error] on a
    malformed line, an invalid name or value, a stamp value that is not
    exactly what its constructor renders (for the payment and epoch:
    [decimal n] for some [n >= 0]), a repeated stamp, or an unknown
    [X-Zmail-*] name. *)

val to_string : t -> string
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
