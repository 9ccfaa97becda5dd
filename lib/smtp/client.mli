(** Client side of an SMTP session: drives a full HELO → MAIL → RCPT →
    DATA → QUIT dialogue against an abstract line transport.

    The transport is one function from line to reply, so the same
    driver runs against an in-memory {!Server} (as the simulator's MTA
    does) or against a recorded transcript in tests. *)

type transport = {
  greeting : unit -> Reply.t;
      (** Read the server's 220 banner (called once, first). *)
  exchange : string -> Reply.t option;
      (** Send one line; [Some reply] for commands and the DATA
          terminator, [None] for intermediate data lines. *)
}

val of_server : Server.t -> transport
(** Wire a transport directly to an in-memory server session. *)

type outcome = {
  accepted : Address.t list;  (** Recipients the server took. *)
  rejected : (Address.t * Reply.t) list;  (** Refused recipients. *)
}

type failure =
  | Connection_refused of Reply.t  (** Non-220 banner. *)
  | Protocol_error of { at : string; reply : Reply.t }
      (** An unexpected reply to the named command. *)
  | All_recipients_rejected of (Address.t * Reply.t) list

val deliver :
  transport -> hostname:string -> Envelope.t -> Message.t ->
  (outcome, failure) result
(** Run the dialogue synchronously.  Delivery succeeds if at least one
    recipient is accepted; per-recipient rejections are reported in the
    outcome, in envelope order.

    [Serve.Session] runs the same dialogue against the same transport
    but spreads it over engine events, one round trip per phase; both
    put the body on the wire with {!send_data}. *)

val send_data : transport -> Message.t -> Reply.t option
(** After DATA's 354: send each line of {!Message.iter_lines},
    dot-stuffed per RFC 821 §4.5.2 (a leading ['.'] is doubled, which
    the server's reader undoes), then the terminating ["."], and return
    the reply to the dot.  The one body writer, so both dialogue
    drivers put identical bytes on the wire. *)

val failure_to_string : failure -> string
