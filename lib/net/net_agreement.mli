(** Agreement end-to-end over the message substrate.

    Wires an {!Setsync_agreement.Ag_harness} solver run to the net
    backend: clients [0..n-1] run the solver against a store whose
    registers are routed through {!Netmem}, owners [n..n+owners-1]
    serve them, the executor universe is widened accordingly, and the
    round policy grants owners serve turns. The crash
    side of an {!Adversary.combined} becomes the executor's fault
    plan; the loss side drives the channels. *)

type result = {
  outcome : Setsync_agreement.Ag_harness.outcome;
  stats : Net.stats;
  ops : int;  (** routed register ops completed ({!Netmem.ops_completed}) *)
}

val solve :
  ?solver:[ `Auto | `Paxos ] ->
  ?owners:int ->
  ?resend_after:int ->
  ?max_wait:int ->
  ?initial_timeout:int ->
  ?obs:Setsync_obs.Obs.t ->
  problem:Setsync_agreement.Problem.t ->
  inputs:int array ->
  combined:Adversary.combined ->
  max_steps:int ->
  unit ->
  result
(** Solve [(t,k,n)]-agreement over messages. [owners] defaults to 1. Set [resend_after] when the adversary
    drops messages (it is the liveness mechanism: without it a dropped
    request parks its client until the step budget). The source is
    round-robin over live clients; owners step only via the round
    policy. *)

val solve_shm :
  ?solver:[ `Auto | `Paxos ] ->
  ?initial_timeout:int ->
  ?obs:Setsync_obs.Obs.t ->
  problem:Setsync_agreement.Problem.t ->
  inputs:int array ->
  fault:Setsync_runtime.Fault.plan ->
  max_steps:int ->
  unit ->
  Setsync_agreement.Ag_harness.outcome
(** The shared-memory reference run for verdict comparisons: same
    solver and round-robin client scheduling, plain local store. *)

val verdict : ?values:bool -> Setsync_agreement.Ag_harness.outcome -> string
(** Canonical one-line verdict — checker result plus the sorted list
    of deciders, e.g. ["ok=true,decided=0;1;2;3;4"] — compared across
    backends by bench §N2 and its guard. With [values], the sorted
    distinct decision values are appended; pin that only for [`Paxos]
    (k = 1 makes the value deterministic), not for k > 1 where both
    backends may legally decide different sets. *)
