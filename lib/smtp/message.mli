(** RFC-822-style messages: a header block and a body, with the
    [X-Zmail-*] stamps Zmail rides on.

    A message is typed slots plus the generic fields {!add_header}
    appends.  Nothing is kept as header text: a field is rendered only
    when the message is written out ({!iter_lines}, {!to_lines},
    {!to_string}, {!headers}, {!header}), always in this order:
    - the {e base block} {!make} and {!build} set: [From] (an
      {!Address.t}), [To] (an {!Address.t} list, rendered
      [", "]-separated), then [Subject] and [Date] when given.  [Date] is kept as the rendered clock
      (day, hours, minutes, seconds) and written as
      ["Day %d %02d:%02d:%02d +0000"];
    - the generic fields, in insertion order;
    - the stamps, one slot each: [X-Zmail-Ack], [X-Zmail-Payment],
      [X-Zmail-Epoch], [Message-Id] (kept as the stamping MTA's
      sequence number and {!host}) and [Received].

    Every field is validated once, when it enters the message, so
    rendering and re-parsing is exact: [of_lines (to_lines m) = Ok m]
    for every message, structurally.  {!size_bytes} is kept up to date
    by every constructor.  Constant fields are validated once by their
    owner: a {!field} is a checked name and value, a {!subject_line} a
    checked subject, a {!host} a checked host token.

    Header field names are case-insensitive.  A valid name is printable
    US-ASCII (33–126) without [':']; a valid value contains no CR, LF or
    NUL and has no leading or trailing space of [String.trim].  The
    stamp names — [X-Zmail-*], [Message-Id] and [Received], in any case
    — are reserved: only the stamp constructors set them.  SMTP
    dot-stuffing belongs to the session layer ({!Client.send_data} and
    {!Server}); a {!reader} is fed a stuffed line from its second
    byte. *)

type t

val make :
  from:Address.t ->
  to_:Address.t list ->
  ?subject:string ->
  ?date:float ->
  body:string ->
  unit ->
  (t, string) result
(** Build a message whose base block is [From], [To], [Subject] and
    [Date], in that order.  [date] is simulated seconds since the epoch,
    kept as the clock it renders to.  [Error] when [subject] is not a
    valid header value, or [date] is outside [\[0, 1e15\]]; otherwise
    [Ok] of {!build} with no fields or stamps. *)

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

type subject_line
(** A [Subject] value that passed {!check_header}, for a subject used
    by many messages: validated once, when it is built. *)

val subject_line : string -> (subject_line, string) result
(** [Error] exactly when {!make} refuses the subject, with its text. *)

val subject_line_exn : string -> subject_line
(** As {!subject_line}.
    @raise Invalid_argument when {!subject_line} returns [Error]. *)

val check_header : string -> string -> (unit, string) result
(** [check_header name value] is [Ok ()] when {!add_header} would accept
    the field, and otherwise the [Error] it would return, which names
    the header. *)

type field
(** A header name and value that passed {!check_header}, for a field
    added to many messages: validated once, when it is built. *)

val field : string -> string -> (field, string) result
(** [Error] exactly when {!check_header} is. *)

val field_exn : string -> string -> field
(** As {!field}.
    @raise Invalid_argument when {!field} returns [Error]. *)

val add_field : t -> field -> t
(** Append a generic field.  Before any generic field, a [Subject]
    appended to a base block with neither [Subject] nor [Date], or a
    [Date] in its rendered form appended to a block without [Date],
    fills that base slot instead: the rendering is the same bytes.  So
    does a [To] appended after a lone [From] on a message without a
    base block, when both render from their slots. *)

val build :
  from:Address.t ->
  to_:Address.t list ->
  ?subject:subject_line ->
  ?date:float ->
  fields:field list ->
  ?ack:string ->
  ?payment:int ->
  ?epoch:int ->
  body:string ->
  unit ->
  t
(** A whole message in one record, checked values taken as they are:
    [build ~from ~to_ ?subject ?date ~fields ?ack ?payment ?epoch ~body ()]
    is [=] to the chain
    {[
      make_exn ~from ~to_ ?subject ?date ~body ()
      |> fun m -> List.fold_left add_field m fields
      |> fun m -> (match ack with Some of_id -> mark_ack m ~of_id | None -> m)
      |> fun m -> (match payment with Some epennies -> mark_payment ?epoch m ~epennies | None -> m)
    ]}
    (with the subject as a string): the same slots, generic fields in
    the same order ([fields] is in insertion order), the same
    {!size_bytes} and the same rendering.  The chain copies the record
    once per step; [build] allocates one, plus the [fields] list
    reversed when it has two or more.  As in the chain, without a
    [date] a leading [Subject] or [Date] field fills its empty base
    slot.  A qcheck property in test_smtp holds [build] to the chain.
    @raise Invalid_argument where the chain raises or [make] returns
    [Error]: a [date] outside [\[0, 1e15\]], an [ack] that is not a
    valid header value, a negative [payment] or [epoch]; and for an
    [epoch] without a [payment], which the chain cannot build. *)

val add_header : t -> string -> string -> (t, string) result
(** [add_field] of [field name value]. *)

val add_header_exn : t -> string -> string -> t
(** As {!add_header}.
    @raise Invalid_argument when {!add_header} returns [Error]. *)

val from : t -> Address.t option
(** The [From] address: the base slot, or else the first [From] field,
    parsed. *)

val recipients : t -> Address.t list
(** The [To] addresses: the base slot, or else the first [To] field,
    parsed (comma separated). *)

val subject : t -> string option
val body : t -> string

val header : t -> string -> string option
(** [header t name] is the first value of field [name]
    (case-insensitive) in rendering order.  Base and stamp names are
    answered from their slots; any other name scans only the generic
    fields, and a hit returns the option the field was built with. *)

val headers : t -> (string * string) list
(** All fields in rendering order: the base block, the generic fields,
    then the stamps. *)

val size_bytes : t -> int
(** Rendered size, [String.length (to_string t)], kept in the message:
    O(1). *)

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

type host
(** A host name that can appear in a [Message-Id] and a [Received]
    stamp: a non-empty printable token without space or [';'], so
    ["from D by B; t=..."] splits back unambiguously. *)

val host : string -> (host, string) result
val host_to_string : host -> string

type message_id
(** A [Message-Id] value.  [<seq\@host>] is kept as its two parts and
    rendered only when written out; any other valid header value (read
    off the wire) is kept as text. *)

val message_id_of_seq : int -> host -> message_id
(** [<seq\@host>], as an MTA stamps it.
    @raise Invalid_argument on a negative [seq]. *)

val message_id_of_string : string -> (message_id, string) result
(** [Error] when the text is not a valid header value. *)

val message_id_to_string : message_id -> string

val in_reply_to : message_id -> field
(** The [In-Reply-To] field naming a message; it needs no check, as
    every {!message_id} renders to a valid value. *)

val stamp_message_id : t -> message_id -> t
(** Set the [Message-Id]. *)

val message_id : t -> message_id option

val stamp_received : t -> from:Address.t -> by:host -> at:float -> t
(** Set the [Received] stamp, rendered as
    [Printf.sprintf "from %s by %s; t=%.3f" (Address.domain from) by at].
    The time is kept in integer milliseconds, rounded as [%.3f] rounds.
    @raise Invalid_argument unless [0 <= at <= 1e15]. *)

(** {1 Wire form} *)

val to_lines : t -> string list
(** Render as header lines, a blank line, then body lines. *)

val iter_lines : t -> (string -> unit) -> unit
(** [iter_lines t f] calls [f] on each line of [to_lines t], in order,
    rendering one line at a time and building no list.  A body without
    a newline is passed as the very {!body} string. *)

type reader
(** A streaming reader of a rendering: it takes one line at a time and
    fills the message's slots in place, keeping no line list.  The
    body goes into one buffer; so does every line fed, so the whole
    text stays at hand for a message that does not parse.  A reader is
    used for one message. *)

val reader : unit -> reader

val add_line : reader -> string -> pos:int -> unit
(** Feed the next line, [String.sub line pos (String.length line - pos)],
    read in place: a dot-stuffed line is fed from [pos = 1] without a
    copy.  Header lines are parsed as they arrive; after a malformed
    one, later lines are only kept as text.
    @raise Invalid_argument unless [0 <= pos <= String.length line]. *)

val finish : reader -> (t, string) result
(** The message the lines fed so far render, with the errors and
    rules of {!of_lines}. *)

val text : reader -> string
(** The lines fed so far joined by ['\n']: what a server keeps as an
    opaque body when {!finish} returns [Error]. *)

val of_lines : string list -> (t, string) result
(** Parse a rendering: the lines fed to a {!reader} in order.  Leading
    [From], [To] and optional [Subject] and [Date] lines fill the base
    block only when rendering it writes the same name and value
    (lowercase domains, [", "] between addresses, [Date] digits as
    rendered); otherwise they stay generic fields.  Stamps go into
    their slots.  [Error] on a malformed line, an invalid name or
    value, a stamp value that is not exactly what its constructor
    renders (for the payment and epoch: [decimal n] for some
    [n >= 0]), a repeated stamp, or an unknown [X-Zmail-*] name. *)

val to_string : t -> string
(** One allocation of {!size_bytes} bytes. *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
