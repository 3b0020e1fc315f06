(** Structured event tracing.

    Typed events — a name, a category (the emitting layer), an
    [Instant]/[Begin]/[End] phase, optional process and worker ids,
    and JSON args — timestamped against the sink's creation time.
    [Begin]/[End] pairs form spans that Chrome's trace viewer renders
    as nested bars per worker.

    The {!nop} sink is the universal default: {!enabled} is [false],
    {!emit} returns immediately. Instrumented code guards each emission
    site with {!enabled} so an un-traced run pays one branch and zero
    allocation per potential event — the overhead discipline the P9
    bench enforces. The {!memory} sink is a bounded mutex-protected
    ring safe to share across domains; on overflow the oldest events
    are dropped and counted ({!dropped}). *)

type phase = Instant | Begin | End | Async_begin | Async_end
(** [Async_begin]/[Async_end] pairs are spans that may overlap freely
    (message lifetimes, in-flight intervals); unlike [Begin]/[End]
    they are correlated by an explicit [id], not by nesting, and map
    to Chrome phases ["b"]/["e"]. *)

type event = {
  ts : float;  (** seconds since the sink was created *)
  name : string;  (** event kind, e.g. ["step"], ["expand"], ["steal"] *)
  cat : string;  (** emitting layer: ["runtime"], ["detector"], ["explorer"], … *)
  phase : phase;
  proc : int option;
  worker : int option;
  id : int option;  (** correlates [Async_begin]/[Async_end] pairs *)
  args : (string * Json.t) list;
}

type t

val nop : t
(** Discards everything; [enabled nop = false]. *)

val memory : ?capacity:int -> unit -> t
(** Ring sink keeping the last [capacity] events (default [2^20]).
    The ring starts at 64 slots and doubles on demand up to
    [capacity], so creating a sink allocates almost nothing.
    Raises [Invalid_argument] on a non-positive capacity. *)

val enabled : t -> bool

val emit :
  t ->
  ?proc:int ->
  ?worker:int ->
  ?id:int ->
  ?args:(string * Json.t) list ->
  ?phase:phase ->
  cat:string ->
  string ->
  unit

val span :
  t ->
  ?proc:int ->
  ?worker:int ->
  ?args:(string * Json.t) list ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [span t ~cat name f] brackets [f ()] in a [Begin]/[End] pair
    (exception-safe); [args] go on the [Begin] event. *)

val recorded : t -> int
(** Total events accepted since creation (not capped). *)

val dropped : t -> int
(** Events evicted by the ring. *)

val events : t -> event list
(** Retained events, oldest first. *)

(** {2 Serialization} *)

val event_to_json : event -> Json.t

val event_of_json : Json.t -> (event, string) result
(** Inverse of {!event_to_json} up to float precision — the JSONL
    reader used by {!Analyze} and the round-trip tests. Floats
    (including [ts]) come back rounded to the 12 significant digits
    the format keeps, NaN as [null] and infinities as [±1e308];
    everything else is exact. Unknown fields are ignored; a missing
    or malformed [ts]/[name]/[cat]/[ph] is an error. *)

val event_to_chrome : event -> Json.t
(** One Chrome trace-event object; [ts] in microseconds, [tid] is the
    worker id (else the process id), [pid] fixed at 1. *)

val write_jsonl : t -> out_channel -> unit
(** One event per line, oldest first. *)

val write_chrome : t -> out_channel -> unit
(** A complete JSON array loadable by chrome://tracing / Perfetto. *)

val save_jsonl : t -> string -> unit
val save_chrome : t -> string -> unit

val pp_event : event Fmt.t
