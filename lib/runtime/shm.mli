(** Shared-memory access from process code.

    These are the only functions process code may use to touch shared
    registers; each call costs exactly one step of the schedule (one
    atomic action, per §2.3 of the paper). Using
    {!Setsync_memory.Register.read} directly from process code would
    bypass the step discipline and is reserved for validators.

    Under {!Fiber.inline} the same calls perform their access at once
    instead of suspending; that is how explicit-PC machine steps run
    outside an executor. *)

val read : 'a Setsync_memory.Register.t -> 'a
(** Atomic read; suspends until the scheduler grants this process a
    step. When the register carries a {!Setsync_memory.Register.route}
    the call is forwarded to it instead, and costs whatever steps the
    route's protocol takes (e.g. three for the net backend's
    send/serve/recv round trip). *)

val write : 'a Setsync_memory.Register.t -> 'a -> unit
(** Atomic write; one step (routed like {!read}). *)

val pause : unit -> unit
(** A no-op step (the process "takes a step" without a shared access).
    The paper's automata always access a register; this exists for
    processes that have semantically halted but must keep taking steps
    (e.g. to remain "correct" while idling). *)
