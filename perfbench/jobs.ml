(* The benchmark's jobs: seeded specs for the four workloads, how to
   run each one through the library's public entry points, and the
   check of its output.

   Every job runs in one of two ways. Untraced, it calls the entry
   point a user calls (Net_agreement.solve, Scenario.run_agreement,
   Fd_harness.run, Explorer.explore, Fuzz.run, Net_systems.run_ct).
   Traced, it rebuilds the same run from the public functions those
   entry points use, so that the source, the substrate's pre_step, the
   Netmem round policy and on_step can be wrapped and timed; the
   traced outcome must equal the untraced one (checked per job). *)

open Setsync

type outcome = {
  steps : int;  (** executed steps; replay + machine steps for searches *)
  result_step : int;
      (** logical step at which the result first held: last decide,
          stabilization, or the search's steps for explore jobs *)
  verdict : string;  (** canonical verdict, checked against the reference *)
  ops : int;  (** Netmem ops completed; 0 without routed registers *)
  owner_steps : int;  (** steps taken by register owners *)
  mem : (int * int) option;  (** Store reads and writes, where the store is reachable *)
  sent : int;
  dropped : int;
  iterations : int;  (** detector loop iterations *)
  visited : int;
  pruned : int;
  replay_steps : int;
  machine_steps : int;
  restores : int;
  machine_ns : int;  (** explorer telemetry; traced runs only *)
  restore_ns : int;
  execs : int;
  find_exec : int;
  events : int;
  events_dropped : int;
}

let zero =
  {
    steps = 0;
    result_step = 0;
    verdict = "";
    ops = 0;
    owner_steps = 0;
    mem = None;
    sent = 0;
    dropped = 0;
    iterations = 0;
    visited = 0;
    pruned = 0;
    replay_steps = 0;
    machine_steps = 0;
    restores = 0;
    machine_ns = 0;
    restore_ns = 0;
    execs = 0;
    find_exec = 0;
    events = 0;
    events_dropped = 0;
  }

(* The part of an outcome that is a pure function of the spec: traced
   and untraced runs of one job must agree on all of it. *)
let signature o =
  Printf.sprintf "%s|steps=%d|result=%d|ops=%d|owner=%d|sent=%d|dropped=%d|it=%d|vis=%d|pr=%d|rs=%d|ms=%d|rest=%d|execs=%d|find=%d|ev=%d/%d"
    o.verdict o.steps o.result_step o.ops o.owner_steps o.sent o.dropped o.iterations
    o.visited o.pruned o.replay_steps o.machine_steps o.restores o.execs o.find_exec
    o.events o.events_dropped

type job = {
  id : int;
  kind : string;
  label : string;
  run : Tracer.t option -> outcome;
  check : outcome -> string option;  (** [None] when the output is correct *)
  emission : (traced:bool -> int) option;
      (** the job's run alone, with or without its event sink; returns
          the events recorded. Calibrates the cost of obs emission. *)
}

(* ------------------------------------------------------------ hooks *)

let wrap_source tr src =
  Source.make ~n:(Source.n src) (fun () ->
      let t0 = Tracer.now_ns () in
      let x = Source.next src in
      Tracer.fine tr Tracer.Schedule t0;
      x)

let wrap_factory tr (factory : Executor.source_factory) : Executor.source_factory =
 fun ~live -> wrap_source tr (factory ~live)

let wrap_substrate tr inner =
  let module W = struct
    type t = Substrate.t

    let name = Substrate.name

    let live = Substrate.live

    let pre_step s ~global ~proc =
      let t0 = Tracer.now_ns () in
      Substrate.pre_step s ~global ~proc;
      Tracer.fine tr Tracer.Pre_step t0

    let snapshot = Substrate.snapshot

    let save = Substrate.save
  end in
  Substrate.S ((module W), inner)

let wrap_boost tr (boost : Executor.boost) : Executor.boost =
 fun ~global ~next ->
  let t0 = Tracer.now_ns () in
  let r = boost ~global ~next in
  Tracer.fine tr Tracer.Boost t0;
  if r <> None then tr.Tracer.boost_granted <- tr.Tracer.boost_granted + 1;
  r

(* ------------------------------------------------- agreement jobs *)

let last_decide o = Option.value (Ag_harness.last_decide_step o) ~default:0

let of_agreement ?(values = false) (o : Ag_harness.outcome) =
  {
    zero with
    steps = Run.total_steps o.Ag_harness.run;
    result_step = last_decide o;
    verdict = Net_agreement.verdict ~values o;
    iterations =
      (match o.Ag_harness.fd_iterations with
      | Some a -> Array.fold_left ( + ) 0 a
      | None -> 0);
  }

(* Net_agreement's client rotation: round robin over live clients in
   a [total]-wide universe; owners step only through the round policy. *)
let clients_source ~clients ~total ~live =
  let cursor = ref 0 in
  Source.make ~n:total (fun () ->
      let rec scan tries =
        let x = !cursor in
        cursor := (x + 1) mod clients;
        if live x || tries >= clients then Some x else scan (tries + 1)
      in
      scan 0)

type net_spec = {
  solver : [ `Auto | `Paxos ];
  problem : Problem.t;
  inputs : int array;
  combined : Adversary.combined;
  resend_after : int option;
  max_steps : int;
}

let owner_steps (o : Ag_harness.outcome) n =
  let s = o.Ag_harness.run.Run.steps_of in
  let acc = ref 0 in
  for p = n to Array.length s - 1 do
    acc := !acc + s.(p)
  done;
  !acc

let net_solve ?obs tr s =
  let values = s.solver = `Paxos in
  let n = s.problem.Problem.n in
  match tr with
  | None ->
      let r =
        Net_agreement.solve ~solver:s.solver ?resend_after:s.resend_after ?obs
          ~problem:s.problem ~inputs:s.inputs ~combined:s.combined ~max_steps:s.max_steps ()
      in
      let o = r.Net_agreement.outcome in
      {
        (of_agreement ~values o) with
        ops = r.Net_agreement.ops;
        owner_steps = owner_steps o n;
        sent = r.Net_agreement.stats.Net.sent;
        dropped = r.Net_agreement.stats.Net.dropped;
      }
  | Some tr ->
      let total = n + 1 in
      let store = Store.create () in
      let net = Net.create ?obs ~store ~n:total ~adversary:s.combined.Adversary.adversary () in
      let nm =
        Netmem.install ~mode:Netmem.Batched ?resend_after:s.resend_after ~net ~store
          ~clients:n ~owners:1 ()
      in
      let o =
        Tracer.span tr Tracer.Harness (fun () ->
            Ag_harness.solve ~problem:s.problem ~inputs:s.inputs
              ~source:(wrap_factory tr (fun ~live -> clients_source ~clients:n ~total ~live))
              ~max_steps:s.max_steps ~fault:s.combined.Adversary.fault ~solver:s.solver ~store
              ~total ~extra_body:(Netmem.owner_body nm)
              ~boost:(wrap_boost tr (Netmem.round_policy nm))
              ~substrate:(wrap_substrate tr (Net.substrate net))
              ?obs ())
      in
      let st = Net.stats net in
      {
        (of_agreement ~values o) with
        ops = Netmem.ops_completed nm;
        owner_steps = owner_steps o n;
        sent = st.Net.sent;
        dropped = st.Net.dropped;
        mem = Some (Store.total_reads store, Store.total_writes store);
      }

(* The shm reference for a net job: same problem, inputs, solver and
   crash plan on a plain store. *)
let net_reference s =
  Net_agreement.verdict ~values:(s.solver = `Paxos)
    (Net_agreement.solve_shm ~solver:s.solver ~problem:s.problem ~inputs:s.inputs
       ~fault:s.combined.Adversary.fault ~max_steps:s.max_steps ())

let expect_verdict reference o =
  if o.verdict = reference then None
  else Some (Printf.sprintf "verdict %s, reference %s" o.verdict reference)

(* Scenario's seed-determined ingredients (witness sets and crash
   plan), rebuilt so the traced run can wrap the source. *)
let ingredients (spec : Scenario.spec) =
  let { Scenario.n; i; j; seed; crashes; _ } = spec in
  let rng = Rng.create ~seed in
  let order = Array.init n (fun p -> p) in
  Rng.shuffle rng order;
  let witness_p = Procset.of_list (Array.to_list (Array.sub order 0 i)) in
  let witness_q = Procset.of_list (Array.to_list (Array.sub order 0 j)) in
  let survivor = order.(0) in
  let victims =
    Array.to_list order
    |> List.filter (fun p -> p <> survivor)
    |> List.filteri (fun idx _ -> idx < crashes)
  in
  let fault = List.map (fun p -> (p, 1 + Rng.int rng 2000)) victims in
  (rng, { Generators.p = witness_p; q = witness_q; bound = spec.Scenario.bound }, fault)

let shm_solve tr (spec : Scenario.spec) =
  let solved_verdict o =
    { (of_agreement o) with verdict = Printf.sprintf "solved=%b,%s" (Ag_harness.ok o) (Net_agreement.verdict o) }
  in
  match tr with
  | None -> solved_verdict (Scenario.run_agreement spec).Scenario.outcome
  | Some tr -> (
      let { Scenario.t; k; n; max_steps; _ } = spec in
      let rng, contract, fault = ingredients spec in
      let problem = Problem.make ~t ~k ~n in
      let inputs = Problem.distinct_inputs problem in
      match spec.Scenario.adversary with
      | Scenario.Adaptive ->
          let make_source ~view ~live =
            wrap_source tr
              (Setsync_agreement.Adaptive.source ~live ~n ~contract ~fault_budget:t ~defeat:k ~view ())
          in
          solved_verdict
            (Tracer.span tr Tracer.Harness (fun () ->
                 Ag_harness.solve_adaptive ~problem ~inputs ~make_source ~max_steps ~fault
                   ()))
      | Scenario.Exclusive -> invalid_arg "Jobs.shm_solve: the workloads make no exclusive specs"
      | Scenario.Fair ->
          let store = Store.create () in
          let source =
            wrap_factory tr (fun ~live -> Generators.timely ~live ~n ~contract ~rng ())
          in
          let o =
            Tracer.span tr Tracer.Harness (fun () ->
                Ag_harness.solve ~problem ~inputs ~source ~max_steps ~fault ~store
                  ())
          in
          { (solved_verdict o) with mem = Some (Store.total_reads store, Store.total_writes store) })

(* Figure 2 standalone, fair source over the spec's contract, stopped
   once the winnersets have been stable for [window] steps. The stop
   does not ask that the common winnerset hold a live process, so a
   window shorter than the time the detector takes to move off a
   crashed process stops the run unstabilized: with 2000 steps, 5 of
   4320 detector jobs over seeds 1..60 did; with 10000, none of 12960
   over seeds 1..180. *)
let detector tr (spec : Scenario.spec) ~window =
  let { Scenario.t; k; n; max_steps; _ } = spec in
  let rng, contract, fault = ingredients spec in
  let source ~live = Generators.timely ~live ~n ~contract ~rng () in
  let params = { Kanti_omega.n; t; k } in
  let r =
    match tr with
    | None -> Fd_harness.run ~params ~source ~max_steps ~fault ~stop_after_stable:window ()
    | Some tr ->
        Tracer.span tr Tracer.Harness (fun () ->
            Fd_harness.run ~params ~source:(wrap_factory tr source) ~max_steps ~fault
              ~stop_after_stable:window ())
  in
  let stable = Fd_harness.convergence_step r in
  let satisfied =
    match r.Fd_harness.verdict with Anti_omega.Satisfied _ -> true | _ -> false
  in
  {
    zero with
    steps = Run.total_steps r.Fd_harness.run;
    result_step = Option.value stable ~default:0;
    verdict = Printf.sprintf "satisfied=%b,stable=%b" satisfied (stable <> None);
    iterations = Array.fold_left ( + ) 0 r.Fd_harness.iterations;
    mem = Some (Store.total_reads r.Fd_harness.store, Store.total_writes r.Fd_harness.store);
  }

(* --------------------------------------------------- search jobs *)

let verdicts_string (r : Explorer.report) =
  String.concat ";"
    (List.map
       (fun (name, v) ->
         name ^ "=" ^ match v with Explorer.Ok_bounded -> "ok" | Explorer.Violated _ -> "violated")
       r.Explorer.verdicts)

let of_report (r : Explorer.report) =
  let s = r.Explorer.stats in
  let steps = s.Budget.replay_steps + s.Budget.machine_steps in
  {
    zero with
    steps;
    result_step = steps;
    verdict =
      Printf.sprintf "%s,truncated=%b" (verdicts_string r) s.Budget.truncated;
    visited = s.Budget.visited;
    pruned = s.Budget.pruned_fingerprint + s.Budget.pruned_sleep;
    replay_steps = s.Budget.replay_steps;
    machine_steps = s.Budget.machine_steps;
    restores = s.Budget.restores;
    machine_ns = int_of_float (s.Budget.machine_seconds *. 1e9);
    restore_ns = int_of_float (s.Budget.restore_seconds *. 1e9);
  }

(* The sut with every fresh instance's store kept, so that the traced
   run can read the memory layer's counters after a search. *)
let counting_sut (sut : _ Explorer.sut) =
  let stores = ref [] in
  let fresh ~store =
    stores := store :: !stores;
    sut.Explorer.fresh ~store
  in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 !stores in
  ({ sut with Explorer.fresh }, fun () -> Some (sum Store.total_reads, sum Store.total_writes))

(* An exploration as the CLI's explore command runs it; the traced run
   adds the snapshot engine's movement telemetry. *)
let explore tr ~sut ~properties (config : Explorer.config) =
  match tr with
  | None -> of_report (Explorer.explore ~sut ~properties config)
  | Some tr ->
      let sut, mem = counting_sut sut in
      let r =
        Tracer.span tr Tracer.Explore (fun () ->
            Explorer.explore ~sut ~properties { config with Explorer.telemetry = true })
      in
      { (of_report r) with mem = mem () }

let of_fuzz (r : Fuzz.report) =
  let s = r.Fuzz.stats in
  let steps = s.Budget.replay_steps + s.Budget.machine_steps in
  let found, exec =
    match r.Fuzz.outcome with Fuzz.Passed -> (false, 0) | Fuzz.Violation v -> (true, v.Fuzz.exec)
  in
  {
    zero with
    steps;
    result_step = steps;
    verdict = Printf.sprintf "found=%b" found;
    replay_steps = s.Budget.replay_steps;
    execs = r.Fuzz.execs;
    find_exec = exec;
  }

let fuzz tr ~sut run =
  match tr with
  | None -> of_fuzz (run sut)
  | Some tr ->
      let sut, mem = counting_sut sut in
      { (of_fuzz (Tracer.span tr Tracer.Fuzz (fun () -> run sut))) with mem = mem () }

(* ------------------------------------------------ traced-net jobs *)

(* Export the job's trace to JSONL and run the trace-report analysis
   over the file, as `setsync_cli trace-report` does. *)
let export_and_analyze tr ~events ~file =
  let timed layer f = match tr with None -> f () | Some tr -> Tracer.span tr layer f in
  timed Tracer.Export (fun () ->
      let oc = open_out file in
      Events.write_jsonl events oc;
      close_out oc);
  timed Tracer.Analyze (fun () ->
      match Analyze.load_jsonl file with
      | Error e -> Error e
      | Ok evs -> Analyze.of_events evs)

(* Net_systems.run_ct, rebuilt for the traced run. *)
let run_ct_traced tr ~obs ~clients ~adversary ~max_steps =
  let store = Store.create () in
  let net = Net.create ~obs ~store ~n:clients ~adversary () in
  let dets =
    Array.init clients (fun me ->
        Ct_detector.create ~initial_timeout:2 ~net ~clients ~me
          ~gst_hint:adversary.Adversary.gst ())
  in
  let last_bad = ref (-1) in
  (* Net_systems.run_ct's stabilization observer, timed as on_step *)
  let on_step ~global ~proc:_ =
    let t0 = Tracer.now_ns () in
    if Array.exists (fun d -> Ct_detector.leader d <> 0) dets then last_bad := global;
    Tracer.fine tr Tracer.On_step t0
  in
  let run =
    Tracer.span tr Tracer.Harness (fun () ->
        Executor.run ~n:clients
          ~source:(wrap_factory tr (fun ~live -> Generators.round_robin ~live ~n:clients ()))
          ~max_steps ~substrate:(wrap_substrate tr (Net.substrate net)) ~on_step ~obs
          (fun p () -> Ct_detector.body dets.(p) ()))
  in
  let steps = Run.total_steps run in
  let stabilized_from =
    if steps = 0 || !last_bad = steps - 1 then None else Some (!last_bad + 1)
  in
  (match stabilized_from with
  | Some s when Obs.events_on obs ->
      Events.emit obs.Obs.events ~proc:(Schedule.get run.Run.taken s)
        ~args:[ ("step", Json.Int s); ("leader", Json.Int 0) ]
        ~cat:"detector" "ct_stabilized"
  | _ -> ());
  ( steps,
    stabilized_from,
    Net.stats net,
    Some (Store.total_reads store, Store.total_writes store) )

let ct_traced_job tr ~trace_file ~clients ~adversary ~max_steps =
  let events = Events.memory () in
  let obs = Obs.create ~events () in
  let steps, stabilized, stats, mem =
    match tr with
    | None ->
        let r = Net_systems.run_ct ~obs ~initial_timeout:2 ~clients ~adversary ~max_steps () in
        (r.Net_systems.steps, r.Net_systems.stabilized_from, r.Net_systems.net_stats, None)
    | Some tr -> run_ct_traced tr ~obs ~clients ~adversary ~max_steps
  in
  let analysis = export_and_analyze tr ~events ~file:trace_file in
  let critical =
    match analysis with
    | Error e -> "error:" ^ e
    | Ok r -> (
        match r.Analyze.critical with
        | None -> "none"
        | Some p -> Printf.sprintf "end=%d,total=%d" p.Analyze.end_step p.Analyze.total)
  in
  {
    zero with
    steps;
    result_step = Option.value stabilized ~default:0;
    verdict =
      Printf.sprintf "stabilized=%s,critical=%s"
        (match stabilized with Some s -> string_of_int s | None -> "never")
        critical;
    sent = stats.Net.sent;
    dropped = stats.Net.dropped;
    mem;
    events = Events.recorded events;
    events_dropped = Events.dropped events;
  }

let netmem_traced_job tr ~trace_file s =
  let events = Events.memory () in
  let obs = Obs.create ~events () in
  let o = net_solve ~obs tr s in
  let analysis = export_and_analyze tr ~events ~file:trace_file in
  {
    o with
    verdict =
      (match analysis with Ok _ -> o.verdict | Error e -> o.verdict ^ ",analysis-error:" ^ e);
    events = Events.recorded events;
    events_dropped = Events.dropped events;
  }

(* --------------------------------------------------- generators *)

(* Seeded job lists. Cell counts are fixed per workload and the seed
   draws what varies inside a cell (inputs, GST, crash victim and
   point, witness sets, fuzz seeds), so every seed runs the same mix.
   The run order interleaves the cells by one fixed permutation: a
   job's time depends on the heap its predecessors left, and a
   seed-drawn order would add that to the spread between seeds. *)

let interleaved specs =
  let a = Array.of_list specs in
  Rng.shuffle (Rng.create ~seed:0x5e7) a;
  Array.to_list a

let number specs = List.mapi (fun id f -> f id) specs

let net_spec ?(stratum = (0, 1)) rng ~solver ~n ~lossy =
  let problem =
    match solver with `Paxos -> Problem.consensus ~t:2 ~n | `Auto -> Problem.make ~t:2 ~k:2 ~n
  in
  let inputs = Problem.random_inputs problem ~rng ~spread:(2 * n) in
  let combined, resend_after =
    if lossy then
      let s, strata = stratum in
      let width = 100 / strata in
      let gst = 20 + (s * width) + Rng.int rng width in
      let victim = 1 + Rng.int rng (n - 1) in
      let at = 1 + Rng.int rng 6 in
      (Adversary.crash_brs ~delta:2 ~gst ~total:(n + 1) ~k:2 ~crashes:[ (victim, at) ], Some 8)
    else ({ Adversary.adversary = Adversary.synchronous ~delta:1; fault = [] }, None)
  in
  { solver; problem; inputs; combined; resend_after; max_steps = 500_000 }

let net_label s ~lossy =
  Printf.sprintf "%s n=%d %s"
    (match s.solver with `Paxos -> "paxos" | `Auto -> "kset")
    s.problem.Problem.n
    (if lossy then
       Printf.sprintf "crash_brs gst=%d crash=%s" s.combined.Adversary.adversary.Adversary.gst
         (String.concat "," (List.map (fun (p, at) -> Printf.sprintf "%d@%d" p at) s.combined.Adversary.fault))
     else "sync")

let net_agree ~seed =
  let rng = Rng.create ~seed in
  let cells =
    List.concat_map
      (fun solver ->
        List.concat_map (fun n -> List.map (fun lossy -> (solver, n, lossy)) [ false; true ]) [ 5; 7; 9 ])
      [ `Paxos; `Auto ]
  in
  let specs =
    List.concat_map
      (fun (solver, n, lossy) ->
        let reps = match solver with `Paxos -> 6 | `Auto -> 10 in
        List.init reps (fun rep ->
            let s = net_spec ~stratum:(rep, reps) rng ~solver ~n ~lossy in
            let reference = net_reference s in
            fun id ->
              {
                id;
                kind = (match solver with `Paxos -> "paxos" | `Auto -> "kset");
                label = net_label s ~lossy;
                run = (fun tr -> net_solve tr s);
                check = expect_verdict reference;
                emission = None;
              }))
      cells
  in
  number (interleaved specs)

let spec_label (s : Scenario.spec) =
  Printf.sprintf "(%d,%d,%d) S^%d_{%d,%d} b=%d crashes=%d seed=%d" s.Scenario.t s.Scenario.k
    s.Scenario.n s.Scenario.i s.Scenario.j s.Scenario.n s.Scenario.bound s.Scenario.crashes
    s.Scenario.seed

(* A predicted-solvable cell S^i_{j,n} for (t,k,n): i <= k and
   j - i >= t + 1 - k. *)
let solvable_cell rng ~t ~k ~n =
  let i = 1 + Rng.int rng k in
  let jmin = i + t + 1 - k in
  let j = jmin + Rng.int rng (n - jmin + 1) in
  (i, j)

(* (t, k) pairs per n, cycled through the fair jobs of that n *)
let fair_problems n =
  List.filter (fun (t, k) -> t <= n - 2 && k <= t) [ (1, 1); (2, 1); (2, 2); (n - 2, 1); (n - 2, 2); (n - 2, n - 3) ]

let fair_spec rng ~n ~rep =
  let problems = fair_problems n in
  let t, k = List.nth problems (rep mod List.length problems) in
  let i, j = solvable_cell rng ~t ~k ~n in
  {
    Scenario.t;
    k;
    n;
    i;
    j;
    bound = 2 + (rep mod 3);
    seed = Rng.int rng 1_000_000;
    crashes = rep / List.length problems mod (t + 1);
    adversary = Scenario.Fair;
    max_steps = 2_000_000;
  }

(* Adaptive jobs run on constructible predicted-solvable cells
   (i <= k, j - i >= t + 1 - k, k + j - i < n), with a step budget
   large enough that every run decides, so the verdict equals
   Theorem 27's. *)
let adaptive_cells = [| (1, 1, 4, 1, 2); (1, 1, 4, 1, 3); (2, 1, 4, 1, 3); (2, 2, 4, 2, 3) |]

let adaptive_spec rng ~cell =
  let t, k, n, i, j = adaptive_cells.(cell) in
  {
    Scenario.t;
    k;
    n;
    i;
    j;
    bound = 2 + Rng.int rng 3;
    seed = Rng.int rng 1_000_000;
    crashes = 0;
    adversary = Scenario.Adaptive;
    max_steps = 50_000;
  }

let detector_spec rng ~n ~rep =
  let t = 1 + (rep mod (n - 1)) in
  let k = 1 + (rep / (n - 1) mod t) in
  {
    Scenario.t;
    k;
    n;
    i = k;
    j = t + 1;
    bound = 2 + (rep mod 3);
    seed = Rng.int rng 1_000_000;
    crashes = rep mod (t + 1);
    adversary = Scenario.Fair;
    max_steps = 200_000;
  }

let shm_solve_jobs ~seed =
  let rng = Rng.create ~seed in
  let scenario kind spec =
    let { Scenario.t; k; n; i; j; _ } = spec in
    let predicted = Characterization.solvable ~t ~k ~n ~i ~j in
    fun id ->
      {
        id;
        kind;
        label = kind ^ " " ^ spec_label spec;
        run = (fun tr -> shm_solve tr spec);
        check =
          (fun o ->
            let solved = String.starts_with ~prefix:"solved=true," o.verdict in
            if solved = predicted then None
            else Some (Printf.sprintf "solved=%b, Theorem 27 predicts %b" solved predicted));
        emission = None;
      }
  in
  let detector_job spec id =
    {
      id;
      kind = "detector";
      label = "detector " ^ spec_label spec;
      run = (fun tr -> detector tr spec ~window:10_000);
      check = expect_verdict "satisfied=true,stable=true";
      emission = None;
    }
  in
  let fair =
    List.concat_map (fun n -> List.init 40 (fun rep -> scenario "fair" (fair_spec rng ~n ~rep))) [ 4; 5; 6; 7; 8 ]
  in
  let adaptive =
    List.init (2 * Array.length adaptive_cells) (fun i ->
        scenario "adaptive" (adaptive_spec rng ~cell:(i mod Array.length adaptive_cells)))
  in
  let detectors =
    List.concat_map (fun n -> List.init 24 (fun rep -> detector_job (detector_spec rng ~n ~rep))) [ 3; 4; 5 ]
  in
  number (interleaved (fair @ adaptive @ detectors))

(* Explorations are fixed instances with pinned results (bench §E11
   instances and their neighbours in depth); fuzz hunts draw their
   seeds from the workload seed. Each is (label, run, pinned visited
   states, pinned verdicts). *)
let kset_exploration ~inputs ~depth ~visited ?(symmetry = false) () =
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  let sut = Explore_systems.kset_agreement ~problem ~inputs () in
  let decisions st = st.Explorer.obs.Explore_systems.decisions in
  let properties =
    [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
  in
  let config =
    if symmetry then
      Explorer.config ~prune_fingerprints:true ~engine:Explorer.Snapshot ~symmetry:true ~depth ()
    else Explorer.config ~prune_fingerprints:false ~depth ()
  in
  ( Printf.sprintf "kset n=3 depth %d inputs %s%s" depth
      (String.concat "," (Array.to_list (Array.map string_of_int inputs)))
      (if symmetry then " symmetry" else ""),
    (fun tr -> explore tr ~sut ~properties config),
    visited,
    "kset-agreement(k=1)=ok;validity=ok,truncated=false" )

let detector_exploration ~depth ~visited =
  let sut = Explore_systems.kanti_detector ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
  let properties =
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  ( Printf.sprintf "figure2 detector n=2 depth %d" depth,
    (fun tr -> explore tr ~sut ~properties (Explorer.config ~prune_fingerprints:false ~depth ())),
    visited,
    "anti-omega-stabilized(k=1)=ok,truncated=false" )

let ct_exploration ~depth ~visited =
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let sut = Net_systems.ct_leader ~clients:2 ~adversary () in
  let properties = [ Net_systems.ct_stabilized ~delta:1 ] in
  ( Printf.sprintf "ct over net n=2 depth %d" depth,
    (fun tr ->
      explore tr ~sut ~properties
        (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth ())),
    visited,
    "ct-stabilized(delta=1)=ok,truncated=false" )

(* Sizes spread so that, with the three hunts, the list's median and
   90th-percentile jobs are each well apart from their neighbours, and
   a pass stays under a second so that a run holds many passes. *)
let explorations () =
  let equal = [| 7; 7; 7 |] and distinct = [| 100; 101; 102 |] in
  [
    detector_exploration ~depth:12 ~visited:592;
    kset_exploration ~inputs:equal ~depth:10 ~visited:206 ~symmetry:true ();
    kset_exploration ~inputs:distinct ~depth:8 ~visited:1626 ();
    kset_exploration ~inputs:equal ~depth:9 ~visited:3277 ();
    kset_exploration ~inputs:distinct ~depth:9 ~visited:3277 ();
    kset_exploration ~inputs:equal ~depth:10 ~visited:6480 ();
    ct_exploration ~depth:10 ~visited:2047;
    ct_exploration ~depth:12 ~visited:8191;
  ]

let seeded_bug_hunt ~fuzz_seed tr =
  fuzz tr
    ~sut:(Fuzz_systems.counter_core ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } ())
    (fun sut ->
      Fuzz.run ~len:96
        ~limits:(Budget.limits ~max_states:2_000 ())
        ~sut ~properties:[ Fuzz_systems.winner_argmin () ] ~seed:fuzz_seed ())

(* The BRS hunt starts from the burst schedule of
   Generators.net_adversary, as the library's own fuzz test does, and
   that schedule violates on its own: the hunt measures one execution,
   its re-verification and the shrink, not search, and its result does
   not depend on the fuzz seed. *)
let brs_hunt tr =
  let inputs = [| 0; 10; 20 |] in
  let adversary = Adversary.partition ~delta:1 ~gst:9 ~groups:[ [ 0 ]; [ 1; 2 ] ] in
  let burst =
    Source.take (Generators.net_adversary ~n:3 ~groups:[ [ 1; 2 ]; [ 0 ] ] ~burst:7 ()) 21
  in
  fuzz tr ~sut:(Net_systems.kset_blind ~inputs ~adversary ()) (fun sut ->
      Fuzz.run ~len:21 ~seeds:[ burst ]
        ~limits:(Budget.limits ~max_states:50 ())
        ~sut ~properties:
          [ Property.kset_agreement ~k:1 ~decisions:(fun st -> st.Explorer.obs.Explore_systems.decisions) ]
        ~seed:0 ())

let explore_jobs ~seed =
  let rng = Rng.create ~seed in
  let exploration (label, run, visited, verdict) id =
    {
      id;
      kind = "exploration";
      label;
      run;
      check =
        (fun o ->
          if o.visited = visited && o.verdict = verdict then None
          else
            Some
              (Printf.sprintf "visited %d verdict %s, pinned %d %s" o.visited o.verdict visited
                 verdict));
      emission = None;
    }
  in
  let hunt kind label run id =
    { id; kind; label; run; check = expect_verdict "found=true"; emission = None }
  in
  let seeded_bug () =
    let fuzz_seed = Rng.int rng 1_000_000 in
    hunt "fuzz-seeded-bug" (Printf.sprintf "fuzz-seeded-bug seed=%d" fuzz_seed) (seeded_bug_hunt ~fuzz_seed)
  in
  let specs =
    List.map exploration (explorations ())
    @ List.init 2 (fun _ -> seeded_bug ())
    @ [ hunt "fuzz-brs" "fuzz-brs from the burst schedule" brs_hunt ]
  in
  number (interleaved specs)

let net_traced_jobs ~seed ~trace_file =
  let rng = Rng.create ~seed in
  let ct n rep =
    let delta = 1 + Rng.int rng 2 in
    let gst = 4 + (5 * rep) + Rng.int rng 5 in
    let max_steps = 200 * n in
    let adversary = Adversary.gst_drop ~delta ~gst in
    fun id ->
      {
        id;
        kind = "ct";
        label = Printf.sprintf "ct n=%d delta=%d gst=%d" n delta gst;
        run = (fun tr -> ct_traced_job tr ~trace_file ~clients:n ~adversary ~max_steps);
        check =
          (fun o ->
            let expected =
              Printf.sprintf "stabilized=%d,critical=end=%d,total=%d" o.result_step o.result_step
                o.result_step
            in
            if o.events_dropped > 0 then Some (Printf.sprintf "%d events dropped" o.events_dropped)
            else if o.result_step > 0 && o.verdict = expected then None
            else Some ("critical path does not telescope: " ^ o.verdict));
        emission =
          Some
            (fun ~traced ->
              let events = Events.memory () in
              let obs = if traced then Some (Obs.create ~events ()) else None in
              ignore (Net_systems.run_ct ?obs ~initial_timeout:2 ~clients:n ~adversary ~max_steps ());
              Events.recorded events);
      }
  in
  let netmem lossy =
    let n = 5 in
    let s = net_spec rng ~solver:`Auto ~n ~lossy in
    let reference = net_reference s in
    fun id ->
      {
        id;
        kind = "netmem-kset";
        label = net_label s ~lossy;
        run = (fun tr -> netmem_traced_job tr ~trace_file s);
        check =
          (fun o ->
            if o.events_dropped > 0 then Some (Printf.sprintf "%d events dropped" o.events_dropped)
            else expect_verdict reference o);
        emission = None;
      }
  in
  let specs =
    List.concat_map (fun n -> List.init 6 (ct n)) [ 2; 3; 4 ]
    @ [ netmem false; netmem true; netmem false; netmem true ]
  in
  number (interleaved specs)

let workloads = [ "net-agree"; "shm-solve"; "explore"; "net-traced" ]

let generate ~workload ~seed ~trace_file =
  match workload with
  | "net-agree" -> net_agree ~seed
  | "shm-solve" -> shm_solve_jobs ~seed
  | "explore" -> explore_jobs ~seed
  | "net-traced" -> net_traced_jobs ~seed ~trace_file
  | w -> invalid_arg ("unknown workload " ^ w)
