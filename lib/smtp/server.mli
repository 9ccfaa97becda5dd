(** Server side of an SMTP session: the RFC 821 command state machine.

    One {!t} handles one connection.  Feed it command lines with
    {!on_line}; during a DATA block every line goes, dot-stuffing
    removed, to one {!Message.reader}, which parses the header lines as
    they arrive, until the terminating ["."].  Completed messages are
    queued and retrieved with {!take_received}.  A DATA text that does
    not parse (a forged or repeated stamp, a malformed header line) is
    kept whole as the body of a message with no stamps.

    Recipient acceptance is delegated to the [accept] policy so the MTA
    (or a Zmail ISP, or a spam filter baseline) can refuse mailboxes. *)

type policy = {
  accept_recipient : Address.t -> (unit, string) result;
      (** Checked at RCPT TO time; [Error why] yields a 550. *)
  max_recipients : int;  (** RCPT TO beyond this count gets a 554. *)
  max_message_bytes : int;
      (** Messages larger than this, measured as the sum of (length + 1)
          over the received data lines, are refused with 552 at the end
          of DATA.  The sum is kept as lines arrive, and lines past the
          cap are counted but not kept. *)
}

val default_policy : local_domains:string list -> policy
(** Accept any mailbox in one of [local_domains]; 100 recipients max;
    1 MiB message cap. *)

type listener
(** What every session of one receiving host shares: its name, its
    policy, and its 220 greeting and 221 closing replies, rendered once
    here rather than per session. *)

val listener : hostname:string -> policy:policy -> listener

val listener_policy : listener -> policy

type t

val accept : listener -> t
(** A fresh session on the listener. *)

val create : hostname:string -> policy:policy -> t
(** [accept (listener ~hostname ~policy)]. *)

val greeting : t -> Reply.t
(** The 220 banner; must be read (conceptually) before commands. *)

val on_line : t -> string -> Reply.t option
(** Feed one line from the client.  Returns [Some reply] for command
    lines and for the DATA terminator, [None] for intermediate data
    lines.  A [QUIT] reply (221) ends the session; further lines get
    421. *)

val take_received : t -> (Envelope.t * Message.t) list
(** Messages completed so far, oldest first, and clears the queue. *)

val closed : t -> bool

(** {2 Structural fast path}

    Remote delivery could render the message to lines, run the full
    RFC 821 dialogue and re-parse the result.  Every {!Message.t}
    re-parses to itself ({!Message.of_string} of {!Message.to_string}),
    so the dialogue is an identity on the message and
    {!deliver_direct} computes its outcome structurally.  The qcheck
    equivalence property lives in test_smtp. *)

val deliver_direct :
  policy:policy ->
  Envelope.t ->
  Message.t ->
  [ `Delivered of Envelope.t * Message.t * (Address.t * Reply.t) list
  | `All_rejected of (Address.t * Reply.t) list
  | `Size_exceeded ]
(** Outcome of the full dialogue for a message, without running it:
    recipients are screened by [policy] in envelope order (same cap,
    idempotent-repeat and 550 semantics as the state machine), and the
    size check applies the same wire measure as DATA.  [`Delivered (env, msg, rejected)] carries the envelope of
    accepted recipients and the message the dialogue would have queued;
    [`Size_exceeded] corresponds to the dialogue's 552 at end of DATA. *)
