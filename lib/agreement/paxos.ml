module Proc = Setsync_schedule.Proc
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Shm = Setsync_runtime.Shm

(* One block per process: mbal = highest ballot this process has
   started, bal/inp = its highest accepted ballot and the value
   accepted at it (bal = 0: nothing accepted yet). *)
type block = { mbal : int; bal : int; inp : int }

let empty_block = { mbal = 0; bal = 0; inp = 0 }

let pp_block ppf b = Fmt.pf ppf "(mbal=%d bal=%d inp=%d)" b.mbal b.bal b.inp

type shared = { n : int; blocks : block Register.t array }

let create_shared store ~n ~name =
  Proc.check_n n;
  { n; blocks = Store.array store ~pp:pp_block ~name n (fun _ -> empty_block) }

type proposer = {
  shared : shared;
  proc : Proc.t;
  input : int;
  mutable ballot : int;
  mutable decided : int option;
}

let make_proposer shared ~proc ~input =
  Proc.check ~n:shared.n proc;
  { shared; proc; input; ballot = proc + 1; decided = None }

type attempt_result = Decided of int | Interfered

(* Smallest ballot of [proc]'s arithmetic class strictly above [floor]. *)
let next_ballot ~n ~proc ~floor =
  let rec bump b = if b > floor then b else bump (b + n) in
  bump (proc + 1)

let decided p = p.decided

let current_ballot p = p.ballot

(* {2 Machine form}

   One attempt with an explicit program counter: the only
   implementation of the protocol. PC values name the register atomic
   just performed, carrying its pending result and the attempt's
   accumulated locals; [attempt_resume] runs the code up to the next
   atomic and performs it through [Shm] (a suspension inside a fiber,
   in place under [Fiber.inline]). The two resolutions perform no
   atomic: the caller owns that step's atomic. [p.ballot] is only read
   at attempt start and only written at resolution, so carrying
   [p.ballot] implicitly across a parked attempt is sound. *)

type mpc =
  | P_own of block  (** read own block; prepare write pending *)
  | P_mbal_written of block  (** announced the ballot; [block] is the prior own block *)
  | P_phase1 of { q : int; blk : block; intf : int; best_bal : int; best_inp : int }
      (** read [blocks.(q)] = blk during the collect loop *)
  | P_accept_written of int  (** wrote the accept block for this value *)
  | P_phase2 of { q : int; blk : block; intf : int; value : int }
  | P_decided of int  (** resolved: value decided *)
  | P_interfered  (** resolved by interference, ballot already raised *)

(* phase 1 begins: read own block, then announce the ballot *)
let attempt_start p =
  match p.decided with
  | Some v -> P_decided v
  | None -> P_own (Shm.read p.shared.blocks.(p.proc))

let outcome = function
  | P_decided v -> Some (Decided v)
  | P_interfered -> Some Interfered
  | P_own _ | P_mbal_written _ | P_phase1 _ | P_accept_written _ | P_phase2 _ -> None

(* first/next other-process index, skipping our own slot *)
let first_other ~proc = if proc = 0 then 1 else 0

let next_other ~proc q =
  let q' = q + 1 in
  if q' = proc then q' + 1 else q'

(* the highest ballot above [b] seen so far, folding in [other]'s *)
let note ~b intf other =
  let intf = if other.mbal > b then max intf other.mbal else intf in
  if other.bal > b then max intf other.bal else intf

let interfered p intf =
  p.ballot <- next_ballot ~n:p.shared.n ~proc:p.proc ~floor:intf;
  P_interfered

(* phase 2: accept, then confirm no higher ballot interfered *)
let accept p ~best_bal ~best_inp =
  let b = p.ballot in
  let value = if best_bal > 0 then best_inp else p.input in
  Shm.write p.shared.blocks.(p.proc) { mbal = b; bal = b; inp = value };
  P_accept_written value

let decide p value =
  p.decided <- Some value;
  P_decided value

let attempt_resume p pc =
  let { n; blocks } = p.shared in
  let b = p.ballot in
  match pc with
  | P_own own ->
      Shm.write blocks.(p.proc) { own with mbal = b };
      P_mbal_written own
  | P_mbal_written own ->
      (* phase 1 collect *)
      let q = first_other ~proc:p.proc in
      if q >= n then accept p ~best_bal:own.bal ~best_inp:own.inp
      else
        P_phase1
          { q; blk = Shm.read blocks.(q); intf = 0; best_bal = own.bal; best_inp = own.inp }
  | P_phase1 { q; blk; intf; best_bal; best_inp } ->
      let intf = note ~b intf blk in
      let best_bal, best_inp =
        if blk.bal > best_bal then (blk.bal, blk.inp) else (best_bal, best_inp)
      in
      let q' = next_other ~proc:p.proc q in
      if q' < n then P_phase1 { q = q'; blk = Shm.read blocks.(q'); intf; best_bal; best_inp }
      else if intf > 0 then interfered p intf
      else accept p ~best_bal ~best_inp
  | P_accept_written value ->
      let q = first_other ~proc:p.proc in
      if q >= n then decide p value
      else P_phase2 { q; blk = Shm.read blocks.(q); intf = 0; value }
  | P_phase2 { q; blk; intf; value } ->
      let intf = note ~b intf blk in
      let q' = next_other ~proc:p.proc q in
      if q' < n then P_phase2 { q = q'; blk = Shm.read blocks.(q'); intf; value }
      else if intf > 0 then interfered p intf
      else decide p value
  | P_decided _ | P_interfered -> invalid_arg "Paxos.attempt_resume: the attempt has resolved"

let attempt p =
  let rec go = function
    | P_decided v -> Decided v
    | P_interfered -> Interfered
    | pc -> go (attempt_resume p pc)
  in
  go (attempt_start p)

let save_proposer p =
  let ballot = p.ballot and decided = p.decided in
  fun () ->
    p.ballot <- ballot;
    p.decided <- decided

(* {2 Symmetry} *)

(* Ballots encode their owner's identity (proposer [p] uses
   [{r·n + p + 1}]), so renaming processes renames ballots by shifting
   within the residue class: [b = r·n + owner + 1] maps to
   [r·n + perm(owner) + 1]. *)
let rename_ballot ~n ~perm b =
  if b = 0 then 0
  else
    let owner = (b - 1) mod n in
    b - owner + perm.(owner)

let rename_block ~n ~perm blk =
  {
    mbal = rename_ballot ~n ~perm blk.mbal;
    bal = rename_ballot ~n ~perm blk.bal;
    inp = blk.inp;
  }

let pc_string ~n ~perm = function
  | P_own own -> Printf.sprintf "O%s" (Fmt.to_to_string pp_block (rename_block ~n ~perm own))
  | P_mbal_written own ->
      Printf.sprintf "W%s" (Fmt.to_to_string pp_block (rename_block ~n ~perm own))
  | P_phase1 { q; blk; intf; best_bal; best_inp } ->
      Printf.sprintf "1.%d%s i%d b%d,%d" perm.(q)
        (Fmt.to_to_string pp_block (rename_block ~n ~perm blk))
        (rename_ballot ~n ~perm intf)
        (rename_ballot ~n ~perm best_bal)
        best_inp
  | P_accept_written v -> Printf.sprintf "A%d" v
  | P_phase2 { q; blk; intf; value } ->
      Printf.sprintf "2.%d%s i%d v%d" perm.(q)
        (Fmt.to_to_string pp_block (rename_block ~n ~perm blk))
        (rename_ballot ~n ~perm intf)
        value
  | P_decided v -> Printf.sprintf "D%d" v
  | P_interfered -> "I"

let sym_payload_proposer ~perm p =
  let n = p.shared.n in
  Printf.sprintf "b%d;d%s"
    (rename_ballot ~n ~perm p.ballot)
    (match p.decided with None -> "-" | Some v -> string_of_int v)

let sym_payload_blocks ~perm shared =
  let n = shared.n in
  let out = Array.make n empty_block in
  for q = 0 to n - 1 do
    out.(perm.(q)) <- rename_block ~n ~perm (Register.peek shared.blocks.(q))
  done;
  Fmt.to_to_string Fmt.(array ~sep:(any ";") pp_block) out

let sym_payload_pc ~perm shared pc = pc_string ~n:shared.n ~perm pc

let peek_decision shared =
  (* Highest accepted (bal, inp) pair, if its acceptance was confirmed
     by being the unique maximum — debugging aid only. *)
  let best = ref None in
  Array.iter
    (fun reg ->
      let blk = Register.peek reg in
      if blk.bal > 0 then
        match !best with
        | Some (bal, _) when bal >= blk.bal -> ()
        | Some _ | None -> best := Some (blk.bal, blk.inp))
    shared.blocks;
  Option.map snd !best

let peek_max_ballot shared =
  Array.fold_left (fun acc reg -> max acc (Register.peek reg).mbal) 0 shared.blocks
