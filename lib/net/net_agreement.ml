module Proc = Setsync_schedule.Proc
module Source = Setsync_schedule.Source
module Store = Setsync_memory.Store
module Problem = Setsync_agreement.Problem
module Ag_harness = Setsync_agreement.Ag_harness

type result = {
  outcome : Ag_harness.outcome;
  stats : Net.stats;
  ops : int;
}

(* Round-robin over the clients only, inside a [total]-wide universe:
   owners never appear in the source — their serve turns come from the
   round policy. Skips dead clients so the rotation
   keeps moving; if every client is dead the next cursor client is
   emitted anyway and the harness's stop condition ends the run. *)
let clients_source ~clients ~total ~live =
  let cursor = ref 0 in
  Source.make ~n:total (fun () ->
      let rec scan tries =
        let x = !cursor in
        cursor := (x + 1) mod clients;
        if live x || tries >= clients then Some x else scan (tries + 1)
      in
      scan 0)

let solve ?(solver = `Auto) ?(owners = 1) ?resend_after ?max_wait
    ?initial_timeout ?obs ~problem ~inputs ~combined ~max_steps () =
  let { Problem.n; _ } = problem in
  let total = n + owners in
  let store = Store.create () in
  let net =
    Net.create ?obs ~store ~n:total ~adversary:combined.Adversary.adversary ()
  in
  let nm = Netmem.install ?resend_after ?max_wait ~net ~store ~clients:n ~owners () in
  let source ~live = clients_source ~clients:n ~total ~live in
  let outcome =
    Ag_harness.solve ~problem ~inputs ~source ~max_steps ~fault:combined.Adversary.fault
      ?initial_timeout ~solver ~store ~total
      ~extra_body:(fun p -> Netmem.owner_body nm p)
      ~boost:(Netmem.round_policy nm) ~substrate:(Net.substrate net) ?obs ()
  in
  { outcome; stats = Net.stats net; ops = Netmem.ops_completed nm }

(* The shm reference for verdict comparisons: same problem, same
   inputs, same solver, plain store, round-robin source. *)
let solve_shm ?(solver = `Auto) ?initial_timeout ?obs ~problem ~inputs ~fault ~max_steps () =
  let { Problem.n; _ } = problem in
  let source ~live = clients_source ~clients:n ~total:n ~live in
  Ag_harness.solve ~problem ~inputs ~source ~max_steps ~fault ?initial_timeout ~solver ?obs ()

(* One line a bench row or guard can compare across backends: the
   checker verdict plus who decided. Decision values are included only
   for consensus ([`Paxos]): with k > 1 both backends may legally pick
   different value sets, so value equality is pinned only where the
   protocol makes it deterministic. *)
let verdict ?(values = false) (o : Ag_harness.outcome) =
  let decided =
    Array.to_list o.decisions
    |> List.mapi (fun p d -> (p, d))
    |> List.filter_map (fun (p, d) -> if d = None then None else Some p)
  in
  let vs =
    if values then
      Fmt.str ",values=%a"
        Fmt.(list ~sep:(any ";") int)
        (List.sort_uniq compare (List.filter_map (fun d -> d) (Array.to_list o.decisions)))
    else ""
  in
  Fmt.str "ok=%b,decided=%a%s" (Ag_harness.ok o) Fmt.(list ~sep:(any ";") int) decided vs
