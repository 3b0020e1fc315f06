(** Step-driven process fibers.

    The paper's processes are automata that, in each step, read or
    write one shared register and change state (§2.3). Writing automata
    as explicit state machines is painful, so a process here is
    ordinary OCaml code suspended with OCaml 5 effects at every shared
    access: each call to {!atomic} performs exactly one atomic action
    when — and only when — the scheduler grants the process a step.

    Local computation between shared accesses runs for free within the
    granting step, matching the model (only shared accesses are
    schedule-visible). *)

type t
(** A spawned process fiber. *)

type outcome =
  | Performed  (** the step executed one atomic shared action *)
  | Finished  (** the fiber ran to completion during this step (it
                  halted; at most one atomic action was executed) *)
  | Already_done  (** the fiber had already finished; nothing ran *)

val spawn : (unit -> unit) -> t
(** Create a fiber; nothing runs until the first {!step}. *)

val step : t -> outcome
(** Grant one step: resume the fiber until it executes its next atomic
    action (or finishes). Any exception raised by the process body
    propagates to the caller. *)

val is_done : t -> bool

val atomic : (unit -> 'a) -> 'a
(** To be called from inside a fiber (or {!inline}) only: perform [f]
    as this process's next atomic step. Raises [Failure] if called
    outside both (i.e. with no executor granting steps). *)

val inline : ('a -> 'b) -> 'a -> 'b
(** [inline f x] runs [f x] to completion in the caller's step: every
    {!atomic} it reaches (hence every {!Shm} access) performs its
    action at once and continues, with no suspension. This is how an
    explicit-PC machine step — code written against {!Shm}, one atomic
    per step by construction — runs outside an executor; the same code
    run inside a fiber suspends at each atomic instead. An exception
    from an action is raised at the [atomic] call and propagates out
    of [inline] unless [f] handles it. *)
