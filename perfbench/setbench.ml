(* setbench: the repository's end-to-end benchmark.

     setbench --workload W --seed N --seconds S --trace 0|1
     setbench --selftest

   One closed-loop client runs the workload's seeded job list in one
   process and one domain, one job at a time, in whole passes over the
   list until S seconds have passed. Each job's output is checked; a
   wrong output or an exception counts as a failed job and the loop
   goes on.

   --trace 0 prints the end-to-end metrics; --trace 1 alternates
   untraced and traced passes over the list and prints the per-layer
   metrics. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. METRICS.md defines
   every metric. *)

let now_ns = Tracer.now_ns

let seconds_of_ns ns = float_of_int ns /. 1e9

(* ------------------------------------------------------- statistics *)

let quantile sorted q =
  (* linear interpolation between closest ranks *)
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile (sorted_floats l) 0.5

let ratio a b = if b = 0. then 0. else a /. b

let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* ------------------------------------------------------------ setup *)

let trace_dir = ".perfbench_out"

let trace_file () =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  Filename.concat trace_dir "trace.jsonl"

(* Generate the job list, with its reference verdicts; returns the
   time it took and the list. *)
let generate ~workload ~seed =
  let t0 = now_ns () in
  let jobs = Array.of_list (Jobs.generate ~workload ~seed ~trace_file:(trace_file ())) in
  (seconds_of_ns (now_ns () - t0), jobs)

(* Set-up samples: generations repeated for at least 20 ms, so that a
   list generated in microseconds gets as many samples as one that
   takes a tenth of a second gets time. *)
let setup_samples ~workload ~seed =
  let times = ref [] in
  let start = now_ns () in
  while !times = [] || seconds_of_ns (now_ns () - start) < 0.02 do
    times := fst (generate ~workload ~seed) :: !times
  done;
  !times

(* --------------------------------------------------------- one job *)

type exec = {
  job : Jobs.job;
  wall_ns : int;
  minor_words : float;
  outcome : Jobs.outcome option;  (** [None] when the job raised *)
  error : string option;  (** why the job failed, if it did *)
}

let run_job ?tr (job : Jobs.job) =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let result =
    match tr with
    | None -> ( try Ok (job.Jobs.run None) with e -> Error (Printexc.to_string e))
    | Some tr -> (
        try Ok (Tracer.job tr job.Jobs.id (fun () -> job.Jobs.run (Some tr)))
        with e -> Error (Printexc.to_string e))
  in
  let wall_ns = now_ns () - t0 in
  let minor_words = Gc.minor_words () -. w0 in
  match result with
  | Ok o -> { job; wall_ns; minor_words; outcome = Some o; error = job.Jobs.check o }
  | Error e -> { job; wall_ns; minor_words; outcome = None; error = Some ("raised " ^ e) }

let report_failure e =
  match e.error with
  | None -> ()
  | Some why -> Printf.printf "FAILED job %d (%s): %s\n%!" e.job.Jobs.id e.job.Jobs.label why

let outcomes execs = List.filter_map (fun e -> e.outcome) execs

(* ----------------------------------------------------------- output *)

type metric = { name : string; unit : string; value : float }

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        let v = if Float.is_finite m.value then m.value else 0. in
        Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name v m.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " fields)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, value, unit) -> Printf.printf "  %-36s %16.6g %s\n" name value unit) rows

(* ------------------------------------------------- the closed loop *)

(* Run whole passes over the job list until [seconds] have passed,
   calling [between] after each pass, outside its timing. Whole passes
   keep the job mix of the timing samples fixed. Returns the first
   pass's executions, which give the exact counts, every pass's per-job
   wall times, and the number of failed jobs. *)
let closed_loop ~seconds ~between jobs =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let first = ref [||] and walls = ref [] and failed = ref 0 in
  while !walls = [] || now_ns () < deadline do
    let pass =
      Array.map
        (fun j ->
          let e = run_job j in
          report_failure e;
          if e.error <> None then incr failed;
          e)
        jobs
    in
    if !walls = [] then first := pass;
    walls := Array.map (fun e -> e.wall_ns) pass :: !walls;
    between ()
  done;
  (!first, List.rev !walls, !failed)

(* The memory pass, untimed, before the loop: each job runs once on a
   freshly compacted heap, and its footprint is the major heap's size
   when it ends. The top heap of the whole process is not used: on
   OCaml 5 it moves in steps with where a major cycle ends, and one
   large job put it at 2.3 or 3.3 MB depending on the seed. Returns
   the footprints in MB, sorted. *)
let job_heaps jobs =
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  sorted_floats
    (Array.to_list
       (Array.map
          (fun j ->
            Gc.compact ();
            ignore (run_job j);
            mb (Gc.quick_stat ()).Gc.heap_words)
          jobs))

let is_search (j : Jobs.job) =
  j.Jobs.kind = "exploration" || String.starts_with ~prefix:"fuzz" j.Jobs.kind

let steps_of e = match e.outcome with Some o -> o.Jobs.steps | None -> 0

(* A fixed loop of plain OCaml that uses nothing of the library:
   hashing into a table, short-lived allocation, a sort and string
   building. It runs after every pass, outside the pass timings, and
   its best time measures how fast the machine ran during the run. *)
let reference_loop () =
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 and x = ref 12345 and acc = ref [] in
  for i = 0 to 40_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x land 65535) (i, !acc);
    acc := (!x, i) :: !acc;
    if i land 1023 = 0 then acc := []
  done;
  let a = Array.init 30_000 (fun i -> i * 7919 land 65535) in
  Array.sort compare a;
  let b = Buffer.create 16 in
  for i = 0 to 5_000 do
    Buffer.add_string b (string_of_int i);
    if i land 255 = 0 then Buffer.clear b
  done;
  ignore (Sys.opaque_identity (h, a, !acc, b));
  now_ns () - t0

(* The reference loop's best time on the machine the benchmark was
   made on (a 2.0 GHz Xeon vCPU), in ns. *)
let reference_ns = 22e6

(* Timings are the best of the run's passes, at reference speed. The
   machines this runs on change speed by up to 2x, for seconds at a
   time or for whole minutes, as other tenants come and go. A job's
   fastest wall time across the run's passes is the time it takes at
   the fastest speed the machine reached during the run, and the
   reference loop's fastest time tells that speed; so each job's time
   is its minimum wall time across passes, scaled by [reference_ns]
   over the reference loop's minimum. The latency percentiles are
   taken over these per-job times, and the throughputs are those of a
   pass in which every job took its per-job time. Set-up time is the
   minimum of its samples, scaled likewise. *)
let best_time xs = List.fold_left min infinity xs

let end_to_end ~workload ~seed ~seconds =
  let first_setup, jobs = generate ~workload ~seed in
  let heap_mb = job_heaps jobs in
  (* set-up is sampled after every pass (outside the pass timings), so
     that its samples span the run like the others *)
  let setups = ref [ first_setup ] in
  let refs = ref [ reference_loop () ] in
  let between () =
    setups := setup_samples ~workload ~seed @ !setups;
    refs := reference_loop () :: !refs
  in
  let t0 = now_ns () in
  let first, walls, failed = closed_loop ~seconds ~between jobs in
  let loop_s = seconds_of_ns (now_ns () - t0) in
  let passes = List.length walls in
  let attempted = passes * Array.length jobs in
  let pass_rates =
    List.map (fun w -> float_of_int (Array.length w) /. seconds_of_ns (Array.fold_left ( + ) 0 w)) walls
  in
  let reference_best = best_time (List.map float_of_int !refs) in
  let scale = reference_ns /. reference_best in
  let job_s =
    Array.init (Array.length jobs) (fun i ->
        scale *. best_time (List.map (fun w -> seconds_of_ns w.(i)) walls))
  in
  let pass_s = Array.fold_left ( +. ) 0. job_s in
  let jobs_per_s = float_of_int (Array.length jobs) /. pass_s in
  let steps_per_s = float_of_int (Array.fold_left (fun acc e -> acc + steps_of e) 0 first) /. pass_s in
  let job_ms = sorted_floats (List.map (fun s -> s *. 1e3) (Array.to_list job_s)) in
  let searches = List.filter (fun e -> e.job.Jobs.kind = "exploration") (Array.to_list first) in
  let first = outcomes (Array.to_list first) in
  let logical = median (List.map (fun o -> float_of_int o.Jobs.result_step) first) in
  let routed = List.filter (fun o -> o.Jobs.ops > 0) first in
  let ops = isum (fun o -> o.Jobs.ops) routed in
  let visited = isum (fun o -> o.Jobs.visited) first in
  let metrics =
    [
      { name = "setup_s"; unit = "s"; value = scale *. best_time !setups };
      { name = "jobs_per_s"; unit = "1/s"; value = jobs_per_s };
      { name = "job_p50_ms"; unit = "ms"; value = quantile job_ms 0.5 };
      { name = "job_p90_ms"; unit = "ms"; value = quantile job_ms 0.9 };
      { name = "steps_per_s"; unit = "1/s"; value = steps_per_s };
      { name = "job_heap_p90_mb"; unit = "MB"; value = quantile heap_mb 0.9 };
      { name = "logical_steps_p50"; unit = "steps"; value = logical };
    ]
  in
  (* workload-specific figures, printed for the reader; the result
     line carries only the metrics every workload has *)
  let extra =
    [ ("failed_frac", ratio (float_of_int failed) (float_of_int attempted), "frac") ]
    @ (if ops > 0 then
         [ ("steps_per_op", ratio (float_of_int (isum (fun o -> o.Jobs.steps) routed)) (float_of_int ops), "steps/op") ]
       else [])
    @
    if visited > 0 then
      [
        ( "states_per_s",
          ratio
            (float_of_int (isum (fun e -> match e.outcome with Some o -> o.Jobs.visited | None -> 0) searches))
            (List.fold_left (fun acc e -> acc +. job_s.(e.job.Jobs.id)) 0. searches),
          "1/s" );
        ("visited_states", float_of_int visited, "count");
      ]
    else []
  in
  print_table
    (Printf.sprintf
       "setbench %s seed=%d: closed loop, 1 client, 1 domain; %d passes over %d jobs in %.2f s; %d timing samples"
       workload seed passes (Array.length jobs) loop_s attempted)
    (List.map (fun m -> (m.name, m.value, m.unit)) metrics @ extra);
  Printf.printf "  reference loop: best %.3f ms of %d samples; timings scaled by %.4f\n"
    (reference_best /. 1e6) (List.length !refs) scale;
  Printf.printf "  jobs/s per pass: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") pass_rates));
  print_result ~attempted ~failed metrics

(* --------------------------------------------------- the traced run *)

(* Executor cost with a body that does nothing but pause: the
   runtime's own per-step cost, used to split the harness residual. *)
let nop_calibration () =
  let tr = Tracer.create () in
  let steps = 100_000 in
  let run =
    Tracer.job tr 0 (fun () ->
        Tracer.span tr Tracer.Harness (fun () ->
            Setsync.Executor.run ~n:4
              ~source:(Jobs.wrap_factory tr (fun ~live -> Setsync.Generators.round_robin ~live ~n:4 ()))
              ~max_steps:steps
              (fun _ () ->
                while true do
                  Setsync.Shm.pause ()
                done)))
  in
  let self, _ = Tracer.totals tr in
  float_of_int self.(Tracer.index Tracer.Harness) /. float_of_int (Setsync.Run.total_steps run)

(* Cost of event emission on the jobs that record events: their runs
   with the sink minus the same runs with obs absent. *)
let emission_calibration jobs =
  let ns = ref 0 and words = ref 0. and events = ref 0 in
  Array.iter
    (fun (j : Jobs.job) ->
      match j.Jobs.emission with
      | None -> ()
      | Some run ->
          let measure traced =
            let w0 = Gc.minor_words () and t0 = now_ns () in
            let ev = run ~traced in
            (now_ns () - t0, Gc.minor_words () -. w0, ev)
          in
          let plain_ns, plain_w, _ = measure false in
          let sink_ns, sink_w, ev = measure true in
          ns := !ns + (sink_ns - plain_ns);
          words := !words +. (sink_w -. plain_w);
          events := !events + ev)
    jobs;
  (float_of_int !ns, !words, float_of_int !events)

let per_layer ~workload ~seed ~seconds =
  let _, jobs = generate ~workload ~seed in
  let len = Array.length jobs in
  let tr = Tracer.create () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let plain = ref [] and traced = ref [] and mismatches = ref 0 and passes = ref 0 in
  let nop = ref [] and emission = ref [] in
  while !passes = 0 || now_ns () < deadline do
    let p = Array.to_list (Array.map (fun j -> run_job j) jobs) in
    let t = Array.to_list (Array.map (fun j -> run_job ~tr j) jobs) in
    List.iter2
      (fun (a : exec) (b : exec) ->
        report_failure a;
        report_failure b;
        match (a.outcome, b.outcome) with
        | Some x, Some y when Jobs.signature x <> Jobs.signature y ->
            incr mismatches;
            Printf.printf "FAILED job %d (%s): traced run differs\n  untraced %s\n  traced   %s\n%!"
              a.job.Jobs.id a.job.Jobs.label (Jobs.signature x) (Jobs.signature y)
        | _ -> ())
      p t;
    plain := p @ !plain;
    traced := t @ !traced;
    nop := nop_calibration () :: !nop;
    emission := emission_calibration jobs :: !emission;
    incr passes
  done;
  Tracer.write_jsonl tr (Filename.concat trace_dir "spans.jsonl");
  let plain = !plain and traced = !traced in
  let attempted = List.length plain + List.length traced in
  let failed =
    !mismatches + List.length (List.filter (fun e -> e.error <> None) (plain @ traced))
  in
  (* exact counts come from one pass; timings from all of them *)
  let first = outcomes (List.filteri (fun i _ -> i < len) (List.rev traced)) in
  let self, calls = Tracer.totals tr in
  let fl = float_of_int in
  let self_of l = fl self.(Tracer.index l) and calls_of l = fl calls.(Tracer.index l) in
  let per_call l = ratio (self_of l) (calls_of l) in
  let wall execs = fl (isum (fun e -> e.wall_ns) execs) in
  let traced_wall = wall traced and plain_wall = wall plain in
  let count f = fl (isum f first) in
  let over pred f = fl (isum f (List.filter pred first)) in
  let exec_sum f execs = fl (isum (fun e -> match e.outcome with Some o -> f o | None -> 0) execs) in
  (* per second of untraced wall, over the jobs [keep] selects *)
  let rate keep f =
    let xs = List.filter (fun e -> keep e.job) plain in
    ratio (exec_sum f xs) (wall xs /. 1e9)
  in
  let exploration (j : Jobs.job) = j.Jobs.kind = "exploration" in
  let hunt j = is_search j && not (exploration j) in
  let steps = count (fun o -> o.Jobs.steps) in
  let nop_ns = median !nop in
  let harness_steps = exec_sum (fun o -> o.Jobs.steps) (List.filter (fun e -> not (is_search e.job)) traced) in
  let with_mem o = o.Jobs.mem <> None in
  let mem f = over with_mem (fun o -> match o.Jobs.mem with Some m -> f m | None -> 0) in
  let mem_steps = over with_mem (fun o -> o.Jobs.steps) in
  let routed o = o.Jobs.ops > 0 in
  let ops = count (fun o -> o.Jobs.ops) in
  let routed_steps = over routed (fun o -> o.Jobs.steps) in
  let owner_steps = count (fun o -> o.Jobs.owner_steps) in
  let visited = count (fun o -> o.Jobs.visited) in
  let ev_ns = fsum (fun (ns, _, _) -> ns) !emission
  and ev_words = fsum (fun (_, w, _) -> w) !emission
  and ev_count = fsum (fun (_, _, e) -> e) !emission in
  let metrics =
    [
      ("schedule.calls", "count", calls_of Tracer.Schedule /. fl !passes);
      ("schedule.ns_per_call", "ns", per_call Tracer.Schedule);
      ("schedule.self_frac", "frac", ratio (self_of Tracer.Schedule) traced_wall);
      ("runtime.steps", "count", steps);
      ("runtime.ns_per_step_nop", "ns", nop_ns);
      ( "runtime.minor_words_per_step",
        "words/step",
        ratio (fsum (fun e -> e.minor_words) plain) (exec_sum (fun o -> o.Jobs.steps) plain) );
      ("runtime.useful_step_frac", "frac", ratio (count (fun o -> o.Jobs.result_step)) steps);
      ("memory.reads_per_step", "reads/step", ratio (mem fst) mem_steps);
      ("memory.writes_per_step", "writes/step", ratio (mem snd) mem_steps);
      ("net.pre_step_ns", "ns", per_call Tracer.Pre_step);
      ("net.pre_step_frac", "frac", ratio (self_of Tracer.Pre_step) traced_wall);
      ("net.sent_per_op", "msgs/op", ratio (over routed (fun o -> o.Jobs.sent)) ops);
      ("net.dropped_frac", "frac", ratio (count (fun o -> o.Jobs.dropped)) (count (fun o -> o.Jobs.sent)));
      ("netmem.ops", "count", ops);
      ("netmem.steps_per_op", "steps/op", ratio routed_steps ops);
      ("netmem.boost_ns", "ns", per_call Tracer.Boost);
      ("netmem.boost_grant_frac", "frac", ratio (fl tr.Tracer.boost_granted) (calls_of Tracer.Boost));
      ("netmem.owner_step_frac", "frac", ratio owner_steps routed_steps);
      ("netmem.ops_per_owner_step", "ops/step", ratio ops owner_steps);
      ( "detector.iterations_per_kstep",
        "iter/kstep",
        1000. *. ratio (count (fun o -> o.Jobs.iterations)) (over (fun o -> o.Jobs.iterations > 0) (fun o -> o.Jobs.steps)) );
      ("detector.on_step_ns", "ns", per_call Tracer.On_step);
      ( "agreement.local_ns_per_step",
        "ns",
        if harness_steps = 0. then 0. else (self_of Tracer.Harness /. harness_steps) -. nop_ns );
      ("explore.visited_states", "count", visited);
      ("explore.states_per_s", "1/s", rate exploration (fun o -> o.Jobs.visited));
      ("explore.replay_steps_per_visited", "steps/state", ratio (over (fun o -> o.Jobs.visited > 0) (fun o -> o.Jobs.replay_steps)) visited);
      ("explore.machine_steps", "count", count (fun o -> o.Jobs.machine_steps));
      ("explore.restores", "count", count (fun o -> o.Jobs.restores));
      ("explore.restore_ns", "ns", ratio (count (fun o -> o.Jobs.restore_ns)) (count (fun o -> o.Jobs.restores)));
      ("explore.machine_ns", "ns", ratio (count (fun o -> o.Jobs.machine_ns)) (count (fun o -> o.Jobs.machine_steps)));
      ("explore.pruned_frac", "frac", ratio (count (fun o -> o.Jobs.pruned)) (visited +. count (fun o -> o.Jobs.pruned)));
      ( "fuzz.execs_to_find_p50",
        "execs",
        median (List.filter_map (fun o -> if o.Jobs.execs > 0 then Some (fl o.Jobs.find_exec) else None) first) );
      ("fuzz.execs_per_s", "1/s", rate hunt (fun o -> o.Jobs.execs));
      ("fuzz.replay_steps_per_exec", "steps/exec", ratio (count (fun o -> if o.Jobs.execs > 0 then o.Jobs.replay_steps else 0)) (count (fun o -> o.Jobs.execs)));
      ("obs.events", "count", count (fun o -> o.Jobs.events));
      ("obs.events_dropped", "count", count (fun o -> o.Jobs.events_dropped));
      ("obs.ns_per_event", "ns", ratio ev_ns ev_count);
      ("obs.minor_words_per_event", "words/event", ratio ev_words ev_count);
      ("obs.export_ms", "ms", per_call Tracer.Export /. 1e6);
      ("obs.analyze_ms", "ms", per_call Tracer.Analyze /. 1e6);
      ("bench.trace_overhead_frac", "frac", ratio traced_wall plain_wall -. 1.);
      ("bench.unattributed_frac", "frac", ratio (self_of Tracer.Job) traced_wall);
    ]
  in
  print_table
    (Printf.sprintf "setbench %s seed=%d traced: %d passes over %d jobs, untraced and traced alternating"
       workload seed !passes len)
    (List.map (fun (name, unit, value) -> (name, value, unit)) metrics);
  Printf.printf "  layer self times + unattributed residual = %.6f of traced job wall\n"
    (ratio (fl (Array.fold_left ( + ) 0 self)) traced_wall);
  print_result ~attempted ~failed
    (List.map (fun (name, unit, value) -> { name; unit; value }) metrics)

(* ------------------------------------------------------- self-test *)

(* The benchmark's own tests, on a few jobs of every kind of every
   workload: exact counts repeat on the same seed, traced runs give the
   untraced verdicts and counts, and each traced job's span self times
   add up to its wall time with no span outlasting its parent. *)
let selftest () =
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL %s\n%!" s) fmt in
  List.iter
    (fun workload ->
      let trace_file = trace_file () in
      let sample seed =
        let jobs = Jobs.generate ~workload ~seed ~trace_file in
        let kinds = Hashtbl.create 8 in
        List.filter
          (fun (j : Jobs.job) ->
            let seen = Option.value (Hashtbl.find_opt kinds j.Jobs.kind) ~default:0 in
            Hashtbl.replace kinds j.Jobs.kind (seen + 1);
            seen < 2)
          jobs
      in
      let jobs = sample 7 in
      let labels l = List.map (fun (j : Jobs.job) -> j.Jobs.label) l in
      if labels jobs <> labels (sample 7) then fail "%s: job list differs between two generations" workload;
      let run_all ?tr () = List.map (fun j -> run_job ?tr j) jobs in
      let a = run_all () and b = run_all () in
      let tr = Tracer.create () in
      let c = run_all ~tr () in
      List.iter2
        (fun (x : exec) (y : exec) ->
          match (x.outcome, y.outcome) with
          | Some o1, Some o2 ->
              if Jobs.signature o1 <> Jobs.signature o2 then
                fail "%s job %s: counts differ between two untraced runs" workload x.job.Jobs.label
          | _ -> fail "%s job %s raised" workload x.job.Jobs.label)
        a b;
      List.iter2
        (fun (x : exec) (y : exec) ->
          (match (x.error, y.error) with
          | None, None -> ()
          | Some e, _ | _, Some e -> fail "%s job %s failed its check: %s" workload x.job.Jobs.label e);
          match (x.outcome, y.outcome) with
          | Some o1, Some o2 ->
              if Jobs.signature o1 <> Jobs.signature o2 then
                fail "%s job %s: traced %s, untraced %s" workload x.job.Jobs.label (Jobs.signature o2)
                  (Jobs.signature o1)
          | _ -> ())
        a c;
      let spans = Tracer.spans tr in
      List.iter
        (fun (j : Jobs.job) ->
          let mine = List.filter (fun (s : Tracer.span) -> s.Tracer.job = j.Jobs.id) spans in
          let root = List.filter (fun (s : Tracer.span) -> s.Tracer.layer = Tracer.Job) mine in
          match root with
          | [ r ] ->
              let total = List.fold_left (fun acc s -> acc + Tracer.self_ns s) 0 mine in
              if total <> r.Tracer.dur_ns then
                fail "%s job %s: self times sum to %d ns, wall %d ns" workload j.Jobs.label total r.Tracer.dur_ns;
              if List.exists (fun s -> Tracer.self_ns s < 0) mine then
                fail "%s job %s: a span has negative self time" workload j.Jobs.label
          | _ -> fail "%s job %s: expected one job span" workload j.Jobs.label)
        jobs;
      Printf.printf "selftest %s: %d jobs checked\n%!" workload (List.length jobs))
    Jobs.workloads;
  if !failures = 0 then print_endline "selftest: all checks passed"
  else Printf.printf "selftest: %d failures\n" !failures;
  !failures = 0

(* ------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let self = ref false in
  let spec =
    [
      ("--workload", Arg.Symbol (Jobs.workloads, fun w -> workload := w), " workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
      ("--selftest", Arg.Set self, " run the benchmark's own tests");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "setbench [options]";
  if !self then exit (if selftest () then 0 else 1);
  if !workload = "" then (prerr_endline "setbench: --workload is required"; exit 2);
  if Float.is_nan !seconds then (prerr_endline "setbench: --seconds is required"; exit 2);
  match !trace with
  | 0 -> end_to_end ~workload:!workload ~seed:!seed ~seconds:!seconds
  | 1 -> per_layer ~workload:!workload ~seed:!seed ~seconds:!seconds
  | _ ->
      prerr_endline "setbench: --trace must be 0 or 1";
      exit 2

