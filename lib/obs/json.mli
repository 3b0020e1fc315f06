(** Minimal JSON values: emitter and parser, no dependencies.

    Carries everything the observability layer serializes (metrics
    snapshots, trace events, bench tables) and everything the CI
    validator reads back. Not a general-purpose JSON library: numbers
    are [int] or [float] and follow the RFC 8259 grammar on input,
    strings are byte sequences with standard escapes, [\uXXXX] escapes
    (surrogate pairs combined, lone surrogates rejected) are UTF-8
    encoded on input and produced on output only for control bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. Floats keep a ["."] or
    exponent marker so they parse back as floats; NaN serializes as
    [null], infinities clamp to ±1e308. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the {!to_string} form to a buffer. *)

val pp : t Fmt.t

val of_string : string -> (t, string) result
(** Strict parse of one JSON value (trailing whitespace allowed,
    trailing garbage is an error). *)

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** {!of_string} of [String.sub s pos len], without the copy; error
    offsets count from [pos]. Raises [Invalid_argument] on a range
    outside [s]. *)

(** {2 Accessors} (shallow, total) *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else. *)

val to_int : t -> int option
(** [Int], or an integral [Float]. *)

val to_float : t -> float option
(** [Float], or any [Int] widened. *)

val to_list : t -> t list option
val to_str : t -> string option
