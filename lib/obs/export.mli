(** Trace exporters: JSONL, Chrome [trace_event], human-readable.

    The JSONL form is one self-describing object per line:

    {v
    {"seq":3,"t":864.5,"comp":"isp","actor":2,"ph":"I","name":"charge",
     "span":0,"fields":{"user":17,"dest":0}}
    v}

    [ph] is ["I"] (instant), ["B"] or ["E"] (span begin/end).  [comp],
    [name] and [fields] render the event's {!Trace.payload}: each
    constructor has one component/name pair and a fixed field order
    (DESIGN.md §7), and its [int list] fields are written as
    comma-joined strings (["1,2,3"], [""] when empty).  Numbers are
    printed so they re-parse exactly — {!event_of_json} inverts
    {!event_to_json} (the round trip over random typed payloads is
    property-tested).

    The Chrome form is a single JSON object [{"traceEvents":[...]}] in
    the Trace Event Format, loadable by [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}.  Simulated seconds map to
    trace microseconds ([ts = time * 1e6]); instants use phase ["i"]
    with thread scope, spans use async phases ["b"]/["e"] keyed by the
    span id; the actor becomes the [tid] (shifted by one so actor [-1]
    — bank/world scope — lands on tid [0], which is name-tagged by
    metadata events). *)

val event_to_json : Trace.event -> string
(** One-line JSON encoding (no trailing newline). *)

val event_of_json : string -> (Trace.event, string) result
(** Parse a line produced by {!event_to_json} back to the same payload
    constructor.  [Error] names the component/name of an unknown kind
    and rejects fields that the kind would not render (missing, extra,
    mistyped or reordered). *)

val to_jsonl : Trace.event list -> string
(** Newline-terminated concatenation of {!event_to_json} lines. *)

val of_jsonl : string -> (Trace.event list, string) result
(** Parse a JSONL document (blank lines ignored). *)

val to_chrome : Trace.event list -> string
(** Chrome [trace_event] JSON document. *)

val write_file :
  path:string -> format:[ `Jsonl | `Chrome ] -> Trace.event list -> unit
(** Write the events to [path] in the given format. *)

val pp_event : Format.formatter -> Trace.event -> unit
(** One-line human-readable rendering, e.g.
    ["[   864.000s] isp/2      charge user=17 dest=0"]. *)

val pp_events : Format.formatter -> Trace.event list -> unit
(** Human-readable dump, one event per line (via {!pp_event}). *)
