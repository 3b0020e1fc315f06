(* Tests for setsync_obs: histogram bucketing, sharded-cell merging
   (including real multi-domain updates), the JSON emitter/parser, the
   event ring, and the end-to-end instrumentation contracts — executor
   step counters, detector stabilization histograms, agreement decision
   latencies, and explorer metrics matching Budget.stats. *)

module Json = Setsync_obs.Json
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Obs = Setsync_obs.Obs
open Setsync

(* ------------------------------------------------------- histograms *)

let test_bucket_boundaries () =
  let check v expect =
    Alcotest.(check int) (Fmt.str "bucket_of %g" v) expect (Metrics.bucket_of v)
  in
  check 0. 0;
  check (-3.) 0;
  check 0.5 0;
  check 0.999999 0;
  (* bucket i holds [2^(i-1), 2^i): boundaries land in the upper bucket *)
  check 1.0 1;
  check 1.999 1;
  check 2.0 2;
  check 3.999 2;
  check 4.0 3;
  check 8.0 4;
  check 1e300 (Metrics.bucket_count - 1);
  (* lower/upper bounds are consistent with bucket_of at every edge *)
  for i = 1 to Metrics.bucket_count - 2 do
    let lo = Metrics.bucket_lower_bound i in
    Alcotest.(check int) (Fmt.str "lower bound of %d" i) i (Metrics.bucket_of lo);
    Alcotest.(check int)
      (Fmt.str "just below upper bound of %d" i)
      i
      (Metrics.bucket_of (Float.pred (Metrics.bucket_upper_bound i)))
  done

let test_histogram_observe () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 100.; 0.25 ];
  let s = Metrics.histogram_snapshot h in
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 104.75 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 0.25 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100. s.Metrics.max;
  Alcotest.(check int) "bucket 0 (v < 1)" 1 s.Metrics.buckets.(0);
  Alcotest.(check int) "bucket 1 ([1,2))" 2 s.Metrics.buckets.(1);
  Alcotest.(check int) "bucket 2 ([2,4))" 1 s.Metrics.buckets.(2);
  Alcotest.(check int) "bucket 7 ([64,128))" 1 s.Metrics.buckets.(7)

(* Per-domain shards merged on read equal the same updates applied
   sequentially — the registry's core contract under --domains. *)
let test_shard_merge_equals_sequential () =
  let domains = 4 in
  let sharded = Metrics.create ~shards:domains () in
  let seq = Metrics.create () in
  let sc = Metrics.counter sharded "c" and qc = Metrics.counter seq "c" in
  let sh = Metrics.histogram sharded "h" and qh = Metrics.histogram seq "h" in
  let work shard = List.init 500 (fun i -> float_of_int (((shard + 1) * i) mod 97)) in
  (* sequential reference *)
  for shard = 0 to domains - 1 do
    List.iter
      (fun v ->
        Metrics.incr qc;
        Metrics.observe qh v)
      (work shard)
  done;
  (* one real domain per shard *)
  let spawned =
    Array.init domains (fun shard ->
        Domain.spawn (fun () ->
            List.iter
              (fun v ->
                Metrics.incr ~shard sc;
                Metrics.observe ~shard sh v)
              (work shard)))
  in
  Array.iter Domain.join spawned;
  Alcotest.(check int) "counter merged" (Metrics.counter_value qc)
    (Metrics.counter_value sc);
  Alcotest.(check int) "per-shard count" 500 (Metrics.counter_value_of_shard sc 2);
  let a = Metrics.histogram_snapshot sh and b = Metrics.histogram_snapshot qh in
  Alcotest.(check int) "hist count" b.Metrics.count a.Metrics.count;
  Alcotest.(check (float 1e-6)) "hist sum" b.Metrics.sum a.Metrics.sum;
  Alcotest.(check (float 1e-9)) "hist min" b.Metrics.min a.Metrics.min;
  Alcotest.(check (float 1e-9)) "hist max" b.Metrics.max a.Metrics.max;
  Alcotest.(check bool) "buckets equal" true (a.Metrics.buckets = b.Metrics.buckets)

let test_metric_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.(check bool) "same name same counter" true
    (Metrics.counter m "x" == Metrics.counter m "x");
  match Metrics.gauge m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gauge on a counter name should raise"

(* ------------------------------------------------------------- json *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t\xe2\x82\xac");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Fmt.str "accepted malformed %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_metrics_json_parses () =
  let m = Metrics.create ~shards:2 () in
  Metrics.incr ~by:3 (Metrics.counter m "c");
  Metrics.set (Metrics.gauge m "g") 2.5;
  Metrics.observe (Metrics.histogram m "h") 5.0;
  match Json.of_string (Json.to_string (Metrics.to_json m)) with
  | Error e -> Alcotest.fail ("metrics JSON did not parse: " ^ e)
  | Ok j -> (
      (match Json.member "counters" j with
      | Some (Json.Obj [ ("c", Json.Int 3) ]) -> ()
      | _ -> Alcotest.fail "counters object wrong");
      match Json.member "histograms" j with
      | Some (Json.Obj [ ("h", hj) ]) ->
          Alcotest.(check bool) "hist count present" true
            (Json.member "count" hj = Some (Json.Int 1))
      | _ -> Alcotest.fail "histograms object wrong")

(* ----------------------------------------------------------- events *)

let test_event_ring () =
  let t = Events.memory ~capacity:4 () in
  Alcotest.(check bool) "enabled" true (Events.enabled t);
  Alcotest.(check bool) "nop disabled" false (Events.enabled Events.nop);
  for i = 1 to 10 do
    Events.emit t ~args:[ ("i", Json.Int i) ] ~cat:"test" "e"
  done;
  Alcotest.(check int) "recorded uncapped" 10 (Events.recorded t);
  Alcotest.(check int) "dropped" 6 (Events.dropped t);
  let evs = Events.events t in
  Alcotest.(check int) "retained" 4 (List.length evs);
  Alcotest.(check (list string)) "oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map
       (fun e ->
         match e.Events.args with [ ("i", Json.Int i) ] -> string_of_int i | _ -> "?")
       evs);
  Alcotest.(check bool) "timestamps monotone" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a.Events.ts <= b.Events.ts && mono rest
       | _ -> true
     in
     mono evs)

(* The ring grows by doubling until it reaches its capacity; across
   every growth step (and every wrap after it) the sink must look like
   a fixed ring of [capacity] slots: [recorded] counts everything,
   [dropped] the overflow, [events] the newest [capacity], oldest
   first. Checked after every emit. *)
let test_event_ring_growth () =
  let ids t =
    List.map
      (fun e -> match e.Events.args with [ ("i", Json.Int i) ] -> i | _ -> -1)
      (Events.events t)
  in
  List.iter
    (fun cap ->
      List.iter
        (fun count ->
          let t = Events.memory ~capacity:cap () in
          let check k =
            let label = Printf.sprintf "cap=%d after %d of %d" cap k count in
            Alcotest.(check int) (label ^ ": recorded") k (Events.recorded t);
            Alcotest.(check int) (label ^ ": dropped") (max 0 (k - cap)) (Events.dropped t);
            let first = max 0 (k - cap) in
            Alcotest.(check (list int))
              (label ^ ": events")
              (List.init (k - first) (( + ) first))
              (ids t)
          in
          check 0;
          for i = 0 to count - 1 do
            Events.emit t ~args:[ ("i", Json.Int i) ] ~cat:"test" "e";
            check (i + 1)
          done)
        [ 0; cap - 1; cap; cap + 1; (3 * cap) + 2 ])
    [ 1; 4; 5; 1000 ];
  List.iter
    (fun capacity ->
      match Events.memory ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ 0; -1; min_int ]

(* words allocated (minor + direct major) by [f ()], less what the
   measurement itself costs. [Gc.minor_words] is exact at any point;
   the minor count in [Gc.counters] only moves at collections. *)
let allocated_words f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let w1 = words () in
  let r = f () in
  let w2 = words () in
  (r, w2 -. w1 -. (w1 -. w0))

let test_event_sink_lazy () =
  let t, words = allocated_words (fun () -> Events.memory ()) in
  Alcotest.(check bool)
    (Printf.sprintf "default sink allocates < 1 KiB up front (%.0f words)" words)
    true
    (words *. float_of_int (Sys.word_size / 8) < 1024.);
  Alcotest.(check int) "still empty" 0 (List.length (Events.events t))

let test_event_span_and_chrome () =
  let t = Events.memory () in
  let r = Events.span t ~worker:3 ~cat:"test" "work" (fun () -> 17) in
  Alcotest.(check int) "span result" 17 r;
  (match Events.events t with
  | [ b; e ] ->
      Alcotest.(check bool) "begin/end phases" true
        (b.Events.phase = Events.Begin && e.Events.phase = Events.End)
  | _ -> Alcotest.fail "expected exactly a begin/end pair");
  let chrome = List.map Events.event_to_chrome (Events.events t) in
  List.iter
    (fun cj ->
      Alcotest.(check bool) "chrome fields" true
        (Json.member "ph" cj <> None
        && Json.member "ts" cj <> None
        && Json.member "pid" cj = Some (Json.Int 1)
        && Json.member "tid" cj = Some (Json.Int 3)))
    chrome;
  match chrome with
  | [ b; _ ] ->
      Alcotest.(check bool) "B phase" true (Json.member "ph" b = Some (Json.String "B"))
  | _ -> Alcotest.fail "two chrome events"

let test_jsonl_lines_parse () =
  let t = Events.memory () in
  Events.emit t ~proc:1 ~args:[ ("x", Json.Float 0.5) ] ~cat:"c" "a";
  Events.emit t ~cat:"c" "b";
  let file = Filename.temp_file "setsync_obs" ".jsonl" in
  Events.save_jsonl t file;
  let lines =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Sys.remove file;
  Alcotest.(check int) "two lines" 2 (List.length lines);
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok j -> Alcotest.(check bool) "has name" true (Json.member "name" j <> None)
      | Error e -> Alcotest.fail ("line did not parse: " ^ e))
    lines

(* ------------------------------------------- instrumentation contracts *)

let test_executor_step_counter () =
  let obs = Obs.create ~events:(Events.memory ()) () in
  let body _ () =
    while true do
      Shm.pause ()
    done
  in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let run = Executor.run ~n:3 ~source ~max_steps:500 ~obs body in
  Alcotest.(check int) "runtime.steps = total steps" (Run.total_steps run)
    (Metrics.counter_value (Metrics.counter obs.Obs.metrics "runtime.steps"));
  let names = List.map (fun e -> e.Events.name) (Events.events obs.Obs.events) in
  Alcotest.(check bool) "step events emitted" true (List.mem "step" names);
  Alcotest.(check bool) "run span emitted" true (List.mem "run" names)

let test_detector_stabilization_histogram () =
  let obs = Obs.create ~events:(Events.memory ()) () in
  let params = { Kanti_omega.n = 3; t = 1; k = 1 } in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let result = Fd_harness.run ~params ~source ~max_steps:50_000 ~obs () in
  let stable =
    match result.Fd_harness.winner_verdict with
    | Anti_omega.Winner_stable _ -> 1
    | _ -> 0
  in
  Alcotest.(check int) "one run counted" stable
    (Metrics.counter_value (Metrics.counter obs.Obs.metrics "detector.runs"));
  let h = Metrics.histogram_snapshot (Metrics.histogram obs.Obs.metrics "detector.stabilization_steps") in
  Alcotest.(check int) "stabilization sample" stable h.Metrics.count;
  if stable = 1 then
    Alcotest.(check bool) "stabilization event" true
      (List.exists
         (fun e -> e.Events.name = "stabilization_detected")
         (Events.events obs.Obs.events))

let test_agreement_decision_latency () =
  let obs = Obs.create () in
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Problem.distinct_inputs problem in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let o = Ag_harness.solve ~problem ~inputs ~source ~max_steps:2_000_000 ~obs () in
  let decided =
    Array.fold_left (fun acc d -> if d <> None then acc + 1 else acc) 0 o.Ag_harness.decide_steps
  in
  Alcotest.(check bool) "someone decided" true (decided > 0);
  Alcotest.(check int) "decided counter" decided
    (Metrics.counter_value (Metrics.counter obs.Obs.metrics "agreement.decided"));
  let h =
    Metrics.histogram_snapshot
      (Metrics.histogram obs.Obs.metrics "agreement.decision_latency_steps")
  in
  Alcotest.(check int) "latency samples" decided h.Metrics.count

(* The acceptance contract of the explorer metrics: exported counters
   are numerically the printed Budget.stats, sequential and parallel. *)
let explorer_metrics_match domains () =
  let obs = Obs.create ~shards:domains ~events:(Events.memory ()) () in
  let sut = Explore_systems.kanti_detector ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
  let properties =
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  let report =
    Explorer.explore ~domains ~obs ~sut ~properties
      (* fingerprints off: the exact-reduction configuration the CLI
         uses for this check, which makes counts domain-independent
         and guarantees sleep prunes occur at this depth *)
      (Explorer.config ~prune_fingerprints:false ~depth:6 ())
  in
  let stats = report.Explorer.stats in
  let counter name = Metrics.counter_value (Metrics.counter obs.Obs.metrics name) in
  Alcotest.(check int) "states" stats.Budget.visited (counter "explorer.states");
  Alcotest.(check int) "safety" stats.Budget.safety_checked (counter "explorer.safety_checked");
  Alcotest.(check int) "fp pruned" stats.Budget.pruned_fingerprint (counter "explorer.fp_pruned");
  Alcotest.(check int) "sleep pruned" stats.Budget.pruned_sleep (counter "explorer.sleep_pruned");
  Alcotest.(check int) "replays" stats.Budget.replays (counter "explorer.replays");
  Alcotest.(check int) "replay steps" stats.Budget.replay_steps (counter "explorer.replay_steps");
  (match Metrics.gauge_value (Metrics.gauge obs.Obs.metrics "explorer.max_depth") with
  | Some d -> Alcotest.(check (float 0.)) "max depth" (float_of_int stats.Budget.max_depth) d
  | None -> Alcotest.fail "max depth gauge unset");
  let names = List.map (fun e -> e.Events.name) (Events.events obs.Obs.events) in
  List.iter
    (fun kind -> Alcotest.(check bool) (kind ^ " events") true (List.mem kind names))
    [ "replay"; "expand"; "sleep_prune" ]

let test_explore_without_obs_unchanged () =
  (* ?obs:None must not perturb the exploration itself *)
  let sut = Explore_systems.kanti_detector ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
  let properties =
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  let run obs =
    let report = Explorer.explore ?obs ~sut ~properties (Explorer.config ~depth:6 ()) in
    ( report.Explorer.stats.Budget.visited,
      report.Explorer.stats.Budget.replay_steps,
      List.map fst report.Explorer.verdicts )
  in
  Alcotest.(check bool) "same exploration" true
    (run None = run (Some (Obs.create ~events:(Events.memory ()) ())))

let () =
  Alcotest.run "setsync_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "shard merge = sequential (4 domains)" `Quick
            test_shard_merge_equals_sequential;
          Alcotest.test_case "kind clash / interning" `Quick test_metric_kind_clash;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick test_json_parse_errors;
          Alcotest.test_case "metrics dump parses" `Quick test_metrics_json_parses;
        ] );
      ( "events",
        [
          Alcotest.test_case "ring drop + order" `Quick test_event_ring;
          Alcotest.test_case "ring growth = fixed ring" `Quick test_event_ring_growth;
          Alcotest.test_case "sink allocates on demand" `Quick test_event_sink_lazy;
          Alcotest.test_case "span + chrome format" `Quick test_event_span_and_chrome;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "executor step counter" `Quick test_executor_step_counter;
          Alcotest.test_case "detector stabilization histogram" `Quick
            test_detector_stabilization_histogram;
          Alcotest.test_case "agreement decision latency" `Quick
            test_agreement_decision_latency;
          Alcotest.test_case "explorer metrics = stats (seq)" `Quick
            (explorer_metrics_match 1);
          Alcotest.test_case "explorer metrics = stats (2 domains)" `Quick
            (explorer_metrics_match 2);
          Alcotest.test_case "no-obs exploration unchanged" `Quick
            test_explore_without_obs_unchanged;
        ] );
    ]
