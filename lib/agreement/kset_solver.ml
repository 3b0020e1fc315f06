module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Store = Setsync_memory.Store
module Shm = Setsync_runtime.Shm
module Kanti_omega = Setsync_detector.Kanti_omega

(* {2 Machine form}

   The solver loop with an explicit per-process program counter: the
   only implementation of Theorem 24's composition. Each step runs the
   local code since the process's previous shared atomic and performs
   the next one through [Shm], so [body] (a fiber looping [advance])
   and the snapshot engine ([machine_step] under [Fiber.inline])
   execute the same code per step. One loop round: a
   full detector iteration, a scan of the decision registers, then a
   Paxos attempt for every rank this process holds in its winnerset. *)

type spc =
  | S_start  (** not yet stepped *)
  | S_fd of Kanti_omega.mpc  (** inside a detector iteration *)
  | S_dec of int * int option  (** read [Dec[q]]; adoption pending *)
  | S_paxos of int * Procset.t * Paxos.mpc
      (** attempting instance [r] with the winnerset the rank came from *)
  | S_dec_written  (** published own decision *)
  | S_paused  (** idling decided process *)

type t = {
  problem : Problem.t;
  inputs : int array;
  fd_shared : Kanti_omega.shared;
  fd_params : Kanti_omega.params;
  instances : Paxos.shared array;  (** one per winnerset rank *)
  dec : int option Setsync_memory.Register.t array;  (** decision gossip *)
  decisions : int option array;  (** local records, index = process *)
  fds : Kanti_omega.process array;
  props : Paxos.proposer array array;  (** [proc].(rank) *)
  pcs : spc array;
  engagement : (int * int) option array;
      (** per process: (instance, ballot) while inside a Paxos attempt *)
}

let create store ~problem ~inputs ?initial_timeout () =
  let { Problem.t = resilience; k; n } = problem in
  if Array.length inputs <> n then invalid_arg "Kset_solver.create: inputs must have length n";
  if k > resilience then
    invalid_arg "Kset_solver.create: requires k <= t (use Trivial when t < k)";
  let fd_params = { Kanti_omega.n; t = resilience; k } in
  Kanti_omega.check_params fd_params;
  let fd_shared = Kanti_omega.create_shared store fd_params in
  let instances =
    Array.init k (fun r -> Paxos.create_shared store ~n ~name:(Printf.sprintf "Paxos%d" r))
  in
  {
    problem;
    inputs;
    fd_shared;
    fd_params;
    instances;
    dec =
      Store.array store
        ~pp:(Fmt.option ~none:(Fmt.any "⊥") Fmt.int)
        ~name:"Dec" n
        (fun _ -> None);
    decisions = Array.make n None;
    fds =
      Array.init n (fun proc ->
          Kanti_omega.make_process ?initial_timeout fd_shared fd_params ~proc);
    props =
      Array.init n (fun proc ->
          Array.init k (fun r -> Paxos.make_proposer instances.(r) ~proc ~input:inputs.(proc)));
    pcs = Array.make n S_start;
    engagement = Array.make n None;
  }

(* adopt or reach a decision: record it and publish it in [Dec[proc]] *)
let decide t proc v =
  t.engagement.(proc) <- None;
  t.decisions.(proc) <- Some v;
  Shm.write t.dec.(proc) (Some v);
  S_dec_written

(* the rank loop from rank [r]: engage the first rank this process
   holds in [w]; falling off the end starts the next detector
   iteration. Always performs this step's atomic. *)
let rec ranks t proc w r =
  if r >= t.problem.Problem.k then S_fd (Kanti_omega.iterate_start t.fds.(proc))
  else if (not (Procset.is_empty w)) && Proc.equal (Procset.nth w r) proc then begin
    let prop = t.props.(proc).(r) in
    t.engagement.(proc) <- Some (r, Paxos.current_ballot prop);
    let pc = Paxos.attempt_start prop in
    match Paxos.outcome pc with
    | None -> S_paxos (r, w, pc)
    | Some (Paxos.Decided v) -> decide t proc v
    | Some Paxos.Interfered -> assert false
  end
  else ranks t proc w (r + 1)

let advance t proc = function
  | S_start -> S_fd (Kanti_omega.iterate_start t.fds.(proc))
  | S_fd pc ->
      let pc' = Kanti_omega.iterate_resume t.fds.(proc) pc in
      if Kanti_omega.iteration_ended pc' then S_dec (0, Shm.read t.dec.(0)) else S_fd pc'
  | S_dec (_, Some v) -> decide t proc v
  | S_dec (q, None) ->
      if q < t.problem.Problem.n - 1 then S_dec (q + 1, Shm.read t.dec.(q + 1))
      else ranks t proc (Kanti_omega.winnerset t.fds.(proc)) 0
  | S_paxos (r, w, pc) -> (
      let pc' = Paxos.attempt_resume t.props.(proc).(r) pc in
      match Paxos.outcome pc' with
      | None -> S_paxos (r, w, pc')
      | Some Paxos.Interfered ->
          t.engagement.(proc) <- None;
          ranks t proc w (r + 1)
      | Some (Paxos.Decided v) -> decide t proc v)
  | S_dec_written | S_paused ->
      (* stay correct: keep taking (idle) steps so schedule contracts
         involving this process keep holding *)
      Shm.pause ();
      S_paused

let machine_step t proc = t.pcs.(proc) <- advance t proc t.pcs.(proc)

(* the fiber keeps the PC in its own frame: writing [t.pcs] each step
   would cost a write barrier the derived loop does not need *)
let body t proc () =
  let rec go pc = go (advance t proc pc) in
  go S_start

let machine_save t =
  let fd_saves = Array.map Kanti_omega.save_process t.fds in
  let prop_saves = Array.map (Array.map Paxos.save_proposer) t.props in
  let pcs = Array.copy t.pcs in
  let decisions = Array.copy t.decisions in
  let engagement = Array.copy t.engagement in
  fun () ->
    Array.iter (fun f -> f ()) fd_saves;
    Array.iter (Array.iter (fun f -> f ())) prop_saves;
    Array.blit pcs 0 t.pcs 0 (Array.length pcs);
    Array.blit decisions 0 t.decisions 0 (Array.length decisions);
    Array.blit engagement 0 t.engagement 0 (Array.length engagement)

(* {2 Symmetry} *)

let rename_set ~perm s =
  Procset.fold (fun p acc -> Procset.add perm.(p) acc) s Procset.empty

(* Admissible renamings: the detector's (preserve the canonical first
   set) intersected with input invariance — renaming may only identify
   processes with equal proposal values, or validity-relevant state
   would be conflated. *)
let sym_perms t =
  Kanti_omega.sym_perms t.fd_params
  |> List.filter (fun perm ->
         let ok = ref true in
         Array.iteri (fun p q -> if t.inputs.(q) <> t.inputs.(p) then ok := false) perm;
         !ok)

let spc_string t ~perm = function
  | S_start -> "-"
  | S_fd _ -> "F"  (* detail lives in the detector payload *)
  | S_dec (q, v) ->
      Printf.sprintf "D%d=%s" perm.(q)
        (match v with None -> "-" | Some v -> string_of_int v)
  | S_paxos (r, w, pc) ->
      Printf.sprintf "P%d;%s;%s" r
        (Procset.to_string (rename_set ~perm w))
        (Paxos.sym_payload_pc ~perm t.instances.(r) pc)
  | S_dec_written -> "W"
  | S_paused -> "Z"

let sym_payload t ~perm =
  let { Problem.k; n; _ } = t.problem in
  let inv = Array.make n 0 in
  Array.iteri (fun p q -> inv.(q) <- p) perm;
  let kanti_pcs =
    Array.map (function S_fd pc -> Some pc | _ -> None) t.pcs
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Kanti_omega.sym_payload t.fd_shared t.fd_params t.fds kanti_pcs ~perm);
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  for r = 0 to k - 1 do
    add "!I%d:%s" r (Paxos.sym_payload_blocks ~perm t.instances.(r));
    for p' = 0 to n - 1 do
      add "~%s" (Paxos.sym_payload_proposer ~perm t.props.(inv.(p')).(r))
    done
  done;
  (* Dec registers, local decisions, engagement, solver PCs — renamed
     process perm p carries process p's slots; decision values are
     payload data and stay fixed. *)
  let str_of_opt = function None -> "-" | Some v -> string_of_int v in
  for p' = 0 to n - 1 do
    let p = inv.(p') in
    add "!d%s;D%s;e%s;pc%s"
      (str_of_opt (Setsync_memory.Register.peek t.dec.(p)))
      (str_of_opt t.decisions.(p))
      (match t.engagement.(p) with
      | None -> "-"
      | Some (r, b) ->
          Printf.sprintf "(%d,%d)" r (Paxos.rename_ballot ~n ~perm b))
      (spc_string t ~perm t.pcs.(p))
  done;
  Buffer.contents buf

let decisions t = Array.copy t.decisions

let fd_iterations t = Array.map Kanti_omega.iterations t.fds

let fd_winnerset t proc = Kanti_omega.winnerset t.fds.(proc)

type adversary_view = {
  winnersets : unit -> Procset.t array;
  engagement : unit -> (int * int) option array;
  instance_max_ballot : int -> int;
  current_argmin : unit -> Procset.t;
}

let adversary_view t =
  let { Problem.n; _ } = t.problem in
  let sets = Kanti_omega.sets t.fd_shared in
  let current_argmin () =
    let best = ref 0 in
    let best_acc = ref (Kanti_omega.accusation_counter t.fd_shared t.fd_params ~set_index:0) in
    for a = 1 to Array.length sets - 1 do
      let acc = Kanti_omega.accusation_counter t.fd_shared t.fd_params ~set_index:a in
      if acc < !best_acc then begin
        best := a;
        best_acc := acc
      end
    done;
    sets.(!best)
  in
  {
    winnersets = (fun () -> Array.init n (fun proc -> fd_winnerset t proc));
    engagement = (fun () -> Array.copy t.engagement);
    instance_max_ballot = (fun r -> Paxos.peek_max_ballot t.instances.(r));
    current_argmin;
  }

let empty_adversary_view ~n =
  {
    winnersets = (fun () -> Array.make n Procset.empty);
    engagement = (fun () -> Array.make n None);
    instance_max_ballot = (fun _ -> 0);
    current_argmin = (fun () -> Procset.empty);
  }
