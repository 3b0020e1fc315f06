(* Tests for the trace-analysis toolchain: JSONL round-trips of the
   event schema (including the async/id span kinds the net layer
   emits), critical-path extraction on a hand-built 3-process
   happens-before DAG with a known longest chain, the telescoping
   invariant on a real traced CT run, and the adversary's explained
   verdicts agreeing with its opaque [due]. *)

module Events = Setsync_obs.Events
module Json = Setsync_obs.Json
module Analyze = Setsync_obs.Analyze
module Obs = Setsync_obs.Obs
module Adversary = Setsync_net.Adversary
module Net_systems = Setsync_net.Net_systems

(* ------------------------------------------------- event round-trips *)

let mk ?proc ?worker ?id ?(args = []) ~phase ~cat ~ts name : Events.event =
  { ts; name; cat; phase; proc; worker; id; args }

let sample_events =
  [
    mk ~phase:Events.Instant ~cat:"runtime" ~ts:0.25 ~proc:1
      ~args:[ ("global", Json.Int 3); ("pidx", Json.Int 1) ]
      "step";
    mk ~phase:Events.Begin ~cat:"explorer" ~ts:0.5 ~worker:2 "replay";
    mk ~phase:Events.End ~cat:"explorer" ~ts:0.75 ~worker:2 "replay";
    mk ~phase:Events.Async_begin ~cat:"net" ~ts:1.5 ~proc:0 ~id:7
      ~args:[ ("due", Json.Int 5) ]
      "inflight";
    mk ~phase:Events.Async_end ~cat:"net" ~ts:2.25 ~proc:1 ~id:7 "inflight";
    mk ~phase:Events.Instant ~cat:"net" ~ts:3.0 ~proc:0
      ~args:
        [
          ("mid", Json.Int 4);
          ("src", Json.Int 0);
          ("dst", Json.Int 1);
          ("seq", Json.Int 2);
          ("step", Json.Int 9);
          ("pre_gst", Json.Bool false);
        ]
      "send";
  ]

let check_event_eq label (a : Events.event) (b : Events.event) =
  Alcotest.(check string) (label ^ " name") a.name b.name;
  Alcotest.(check string) (label ^ " cat") a.cat b.cat;
  Alcotest.(check bool) (label ^ " phase") true (a.phase = b.phase);
  Alcotest.(check (option int)) (label ^ " proc") a.proc b.proc;
  Alcotest.(check (option int)) (label ^ " worker") a.worker b.worker;
  Alcotest.(check (option int)) (label ^ " id") a.id b.id;
  Alcotest.(check (float 1e-9)) (label ^ " ts") a.ts b.ts;
  Alcotest.(check string)
    (label ^ " args")
    (Json.to_string (Json.Obj a.args))
    (Json.to_string (Json.Obj b.args))

let test_event_roundtrip () =
  List.iter
    (fun e ->
      (* through the full serialized form, as a JSONL reader sees it *)
      let line = Json.to_string (Events.event_to_json e) in
      match Json.of_string line with
      | Error err -> Alcotest.failf "reparse of %s: %s" line err
      | Ok j -> (
          match Events.event_of_json j with
          | Error err -> Alcotest.failf "event_of_json of %s: %s" line err
          | Ok e' -> check_event_eq e.name e e'))
    sample_events

let test_event_of_json_rejects () =
  let bad =
    [
      "{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"i\"}" (* no ts *);
      "{\"ts\":1,\"cat\":\"c\",\"ph\":\"i\"}" (* no name *);
      "{\"ts\":1,\"name\":\"x\",\"ph\":\"i\"}" (* no cat *);
      "{\"ts\":1,\"name\":\"x\",\"cat\":\"c\",\"ph\":\"zz\"}" (* bad phase *);
    ]
  in
  List.iter
    (fun line ->
      let j = Result.get_ok (Json.of_string line) in
      match Events.event_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "event_of_json accepted %s" line)
    bad

let test_load_jsonl_roundtrip () =
  let sink = Events.memory () in
  List.iter
    (fun (e : Events.event) ->
      Events.emit sink ?proc:e.proc ?worker:e.worker ?id:e.id ~args:e.args
        ~phase:e.phase ~cat:e.cat e.name)
    sample_events;
  let f = Filename.temp_file "setsync_analyze" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      Events.save_jsonl sink f;
      match Analyze.load_jsonl f with
      | Error e -> Alcotest.failf "load_jsonl: %s" e
      | Ok evs ->
          Alcotest.(check int) "count" (List.length sample_events) (List.length evs);
          List.iter2
            (fun (a : Events.event) (b : Events.event) ->
              (* ts is re-stamped by the sink; everything else survives *)
              Alcotest.(check string) "name" a.name b.name;
              Alcotest.(check (option int)) "id" a.id b.id;
              Alcotest.(check bool) "phase" true (a.phase = b.phase))
            sample_events evs)

(* ------------------------------------------------- writer oracle *)

(* The JSON emitter as it was before its fast paths: per-byte escapes,
   Printf for floats and \u escapes. The streaming writers must
   reproduce its bytes exactly. *)
let rec ref_emit buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Json.Int i -> Buffer.add_string buf (string_of_int i)
  | Json.Float f ->
      Buffer.add_string buf
        (if Float.is_nan f then "null"
         else if f = Float.infinity then "1e308"
         else if f = Float.neg_infinity then "-1e308"
         else
           let s = Printf.sprintf "%.12g" f in
           if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0")
  | Json.String s -> ref_escape buf s
  | Json.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          ref_emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          ref_escape buf k;
          Buffer.add_char buf ':';
          ref_emit buf v)
        fields;
      Buffer.add_char buf '}'

and ref_escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let ref_to_string v =
  let buf = Buffer.create 64 in
  ref_emit buf v;
  Buffer.contents buf

module Rng = Setsync.Rng

let gen_text rng =
  String.concat ""
    (List.init (Rng.int rng 6) (fun _ ->
         match Rng.int rng 8 with
         | 0 -> "\""
         | 1 -> "\\"
         | 2 -> String.make 1 (Char.chr (Rng.int rng 32))
         | 3 -> Rng.pick rng [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\x7f" ]
         | 4 -> String.make 1 (Char.chr (128 + Rng.int rng 128))
         | _ -> Rng.pick rng [ "step"; "a b"; "x"; "/"; "{}"; "deliver" ]))

let gen_float rng =
  match Rng.int rng 8 with
  | 0 -> Rng.pick rng [ 0.1; 1e-7; 5e20; 0.; -0.; 1e12; 1e15; -42.; 3. ]
  | 1 -> Rng.pick rng [ Float.nan; Float.infinity; Float.neg_infinity; max_float; min_float ]
  | 2 -> float_of_int (Rng.int rng 2_000_001 - 1_000_000)
  | _ ->
      let m = Rng.float rng -. 0.5 in
      Float.ldexp m (Rng.int rng 140 - 70)

let gen_int rng =
  match Rng.int rng 6 with
  | 0 -> Rng.pick rng [ 0; -1; min_int; max_int; -1_000_000_007 ]
  | 1 -> -Rng.int rng 1_000
  | _ -> Rng.int rng 100_000

let rec gen_arg rng depth =
  match Rng.int rng (if depth = 0 then 5 else 7) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Rng.bool rng)
  | 2 -> Json.Int (gen_int rng)
  | 3 -> Json.Float (gen_float rng)
  | 4 -> Json.String (gen_text rng)
  | 5 -> Json.List (List.init (Rng.int rng 3) (fun _ -> gen_arg rng (depth - 1)))
  | _ -> Json.Obj (List.init (Rng.int rng 3) (fun _ -> (gen_text rng, gen_arg rng (depth - 1))))

(* what a JSON round trip makes of a value: floats keep 12
   significant digits, NaN becomes null, infinities clamp *)
let rec reloaded = function
  | Json.Float f when Float.is_nan f -> Json.Null
  | Json.Float f -> Json.Float (float_of_string (ref_to_string (Json.Float f)))
  | Json.List xs -> Json.List (List.map reloaded xs)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, reloaded v)) kvs)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.String _) as v -> v

let seeded_sink seed count =
  let rng = Rng.create ~seed in
  let sink = Events.memory () in
  let opt f = if Rng.bool rng then Some (f ()) else None in
  for _ = 1 to count do
    Events.emit sink
      ?proc:(opt (fun () -> gen_int rng))
      ?worker:(opt (fun () -> gen_int rng))
      ?id:(opt (fun () -> gen_int rng))
      ~args:(List.init (Rng.int rng 4) (fun _ -> (gen_text rng, gen_arg rng 2)))
      ~phase:
        (Rng.pick rng
           [ Events.Instant; Events.Begin; Events.End; Events.Async_begin; Events.Async_end ])
      ~cat:(gen_text rng) (gen_text rng)
  done;
  sink

let written write sink =
  let f = Filename.temp_file "setsync_writer" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      Out_channel.with_open_bin f (fun oc -> write sink oc);
      In_channel.with_open_bin f In_channel.input_all)

let test_writer_oracle seed () =
  (* enough events that the writer's buffer flushes several times *)
  let sink = seeded_sink seed 3000 in
  let evs = Events.events sink in
  let jsonl =
    String.concat "" (List.map (fun e -> ref_to_string (Events.event_to_json e) ^ "\n") evs)
  in
  Alcotest.(check string) "write_jsonl bytes" jsonl (written Events.write_jsonl sink);
  let chrome =
    "["
    ^ String.concat ",\n" (List.map (fun e -> ref_to_string (Events.event_to_chrome e)) evs)
    ^ "]\n"
  in
  Alcotest.(check string) "write_chrome bytes" chrome (written Events.write_chrome sink);
  let f = Filename.temp_file "setsync_writer" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      Events.save_jsonl sink f;
      match Analyze.load_jsonl f with
      | Error e -> Alcotest.failf "load_jsonl: %s" e
      | Ok back ->
          Alcotest.(check int) "count" (List.length evs) (List.length back);
          List.iter2
            (fun (a : Events.event) (b : Events.event) ->
              let expect = { a with ts = 0.; args = [] } and got = { b with ts = 0.; args = [] } in
              if expect <> got then
                Alcotest.failf "event %s reloads as %s" (ref_to_string (Events.event_to_json a))
                  (ref_to_string (Events.event_to_json b));
              Alcotest.(check (float 0.)) "ts at 12 significant digits"
                (float_of_string (ref_to_string (Json.Float a.ts)))
                b.ts;
              Alcotest.(check bool) "args" true (reloaded (Json.Obj a.args) = Json.Obj b.args))
            evs back)

(* ------------------------------------------------ analysis oracle *)

(* The critical-path walk, pair table and per-process table as first
   written: linear scans over the event list for every hop. The
   indexed [of_events] must agree with it exactly. *)
let arg name (e : Events.event) = Option.bind (List.assoc_opt name e.args) Json.to_int

let naive_report evs (msgs : Analyze.msg list) =
  let open Analyze in
  let steps =
    List.filter_map
      (fun (e : Events.event) ->
        match (e.cat, e.name, e.proc, arg "global" e) with
        | "runtime", "step", Some p, Some g -> Some (p, g)
        | _ -> None)
      evs
  in
  let anchor =
    List.fold_left
      (fun acc (e : Events.event) ->
        if e.cat = "detector" && e.name = "ct_stabilized" then arg "step" e else acc)
      None evs
  in
  let prev_step p g =
    List.fold_left
      (fun best (q, g') -> if q = p && g' < g && Some g' > best then Some g' else best)
      None steps
  in
  let delivered m = Option.get m.delivered_step in
  let latest_delivery p g =
    List.fold_left
      (fun best m ->
        match (m.delivered_step, best) with
        | Some d, _ when m.dst <> p || d > g -> best
        | Some _, None -> Some m
        | Some d, Some b -> if (d, m.mid) > (delivered b, b.mid) then Some m else best
        | None, _ -> best)
      None msgs
  in
  let rec walk p g acc =
    match (latest_delivery p g, prev_step p g) with
    | Some m, lg when match lg with None -> true | Some lg -> delivered m >= lg ->
        let hop = Recv { msg = m; to_proc = p; to_global = g; wait = g - delivered m } in
        walk m.src m.sent_step (hop :: acc)
    | _, Some lg -> walk p lg (Local { proc = p; from_global = lg; to_global = g } :: acc)
    | _, None -> Start { proc = p; global = g } :: acc
  in
  let proc_at g = fst (List.find (fun (_, g') -> g' = g) steps) in
  let hops = Option.map (fun s -> walk (proc_at s) s []) anchor in
  let ids = List.map fst steps @ List.concat_map (fun m -> [ m.src; m.dst ]) msgs in
  let procs = 1 + List.fold_left max (-1) ids in
  let arrived = List.filter (fun m -> m.delivered_step <> None) msgs in
  let delay m = delivered m - m.sent_step in
  let sum f ms = List.fold_left (fun acc m -> acc + f m) 0 ms in
  let count f ms = List.length (List.filter f ms) in
  let pairs =
    List.map
      (fun (src, dst) ->
        let ms = List.filter (fun m -> m.src = src && m.dst = dst) msgs in
        let ok = List.filter (fun m -> m.delivered_step <> None) ms in
        {
          p_src = src;
          p_dst = dst;
          p_delivered = List.length ok;
          p_dropped = count (fun m -> m.delivered_step = None && m.dropped) ms;
          p_delay_total = sum delay ok;
          p_delay_max = List.fold_left (fun acc m -> max acc (delay m)) 0 ok;
          p_adv = sum (fun m -> m.adv) ok;
          p_forced = sum (fun m -> m.forced) ok;
          p_fifo = sum (fun m -> m.fifo) ok;
          p_denied = sum (fun m -> m.denied) ok;
        })
      (List.sort_uniq compare (List.map (fun m -> (m.src, m.dst)) msgs))
  in
  let per_proc =
    List.init (max procs 0) (fun p ->
        let into = List.filter (fun m -> m.dst = p) arrived in
        {
          s_proc = p;
          s_steps = count (fun (q, _) -> q = p) steps;
          s_sent = count (fun m -> m.src = p) msgs;
          s_received = List.length into;
          s_recv_delay_total = sum delay into;
        })
  in
  (hops, pairs, per_proc)

let test_analysis_oracle () =
  let checked = ref 0 in
  for seed = 1 to 3 do
    let rng = Rng.create ~seed in
    for n = 2 to 4 do
      for delta = 1 to 2 do
        let gst = 2 + Rng.int rng 12 in
        let max_steps = (100 * n) + Rng.int rng 100 in
        let events = Events.memory () in
        let obs = Obs.create ~events () in
        let adversary = Adversary.gst_drop ~delta ~gst in
        ignore (Net_systems.run_ct ~obs ~clients:n ~adversary ~max_steps ());
        let trace =
          List.filter (fun (e : Events.event) -> e.name <> "ct_stabilized") (Events.events events)
        in
        (* the real anchor, and synthetic ones spread over the run so
           the walk starts from many steps *)
        let anchors = List.init 8 (fun i -> i * max_steps / 8) @ [ max_steps - 1 ] in
        List.iter
          (fun s ->
            let label =
              Printf.sprintf "seed=%d n=%d delta=%d gst=%d anchor=%d" seed n delta gst s
            in
            let anchored =
              trace
              @ [
                  mk ~phase:Events.Instant ~cat:"detector" ~ts:0. ~proc:0
                    ~args:[ ("step", Json.Int s); ("leader", Json.Int 0) ]
                    "ct_stabilized";
                ]
            in
            match Analyze.of_events anchored with
            | Error e -> Alcotest.failf "%s: of_events: %s" label e
            | Ok r ->
                let hops, pairs, per_proc = naive_report anchored r.Analyze.msgs in
                let got = Option.map (fun p -> p.Analyze.hops) r.Analyze.critical in
                Alcotest.(check bool) (label ^ ": hops") true (got = hops);
                Alcotest.(check (option int))
                  (label ^ ": total")
                  (Option.map (List.fold_left (fun acc h -> acc + Analyze.hop_weight h) 0) hops)
                  (Option.map (fun p -> p.Analyze.total) r.Analyze.critical);
                Alcotest.(check bool) (label ^ ": pairs") true (pairs = r.Analyze.pairs);
                Alcotest.(check bool) (label ^ ": per_proc") true (per_proc = r.Analyze.per_proc);
                incr checked)
          anchors
      done
    done
  done;
  Alcotest.(check int) "anchors checked" (3 * 3 * 2 * 9) !checked

(* ------------------------------- hand-built 3-process causal DAG *)

(* Schedule: g0=p0, g1=p1, g2=p1, g3=p2, g4=p2.
   p0's step at g0 sends m0 to p1; m0 is delivered at tick 1 (adv 1).
   p1's step at g2 sends m1 to p2; m1 is delivered at tick 3 (adv 1).
   The anchor fires at g4 on p2. Longest chain (weights telescope):
     Start(p0@0) -> Recv m0 (1 adv + 1 wait) -> Recv m1 (1 adv + 1 wait)
   total 0 + 2 + 2 = 4 = anchor step. *)
let step ~ts p ~global ~pidx =
  mk ~phase:Events.Instant ~cat:"runtime" ~ts ~proc:p
    ~args:[ ("global", Json.Int global); ("pidx", Json.Int pidx) ]
    "step"

let send ~ts ~mid ~src ~dst ~seq ~step =
  mk ~phase:Events.Instant ~cat:"net" ~ts ~proc:src
    ~args:
      [
        ("mid", Json.Int mid);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("seq", Json.Int seq);
        ("step", Json.Int step);
      ]
    "send"

let deliver ~ts ~mid ~src ~dst ~seq ~step ~sent ~adv ~forced ~fifo =
  mk ~phase:Events.Instant ~cat:"net" ~ts ~proc:dst
    ~args:
      [
        ("mid", Json.Int mid);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("seq", Json.Int seq);
        ("step", Json.Int step);
        ("sent", Json.Int sent);
        ("delay", Json.Int (step - sent));
        ("adv", Json.Int adv);
        ("forced", Json.Int forced);
        ("fifo", Json.Int fifo);
        ("denied", Json.Int 0);
        ("pre_gst", Json.Bool false);
      ]
    "deliver"

let dag_events =
  [
    step ~ts:0.0 0 ~global:0 ~pidx:0;
    send ~ts:0.0 ~mid:0 ~src:0 ~dst:1 ~seq:0 ~step:0;
    step ~ts:0.1 1 ~global:1 ~pidx:0;
    deliver ~ts:0.1 ~mid:0 ~src:0 ~dst:1 ~seq:0 ~step:1 ~sent:0 ~adv:1 ~forced:0
      ~fifo:0;
    step ~ts:0.2 1 ~global:2 ~pidx:1;
    send ~ts:0.2 ~mid:1 ~src:1 ~dst:2 ~seq:0 ~step:2;
    (* a dropped message keeps its lineage without joining the path *)
    send ~ts:0.2 ~mid:2 ~src:0 ~dst:2 ~seq:0 ~step:2;
    mk ~phase:Events.Instant ~cat:"net" ~ts:0.25 ~proc:0
      ~args:
        [
          ("mid", Json.Int 2);
          ("src", Json.Int 0);
          ("dst", Json.Int 2);
          ("seq", Json.Int 0);
          ("step", Json.Int 2);
          ("pre_gst", Json.Bool true);
        ]
      "drop";
    step ~ts:0.3 2 ~global:3 ~pidx:0;
    deliver ~ts:0.3 ~mid:1 ~src:1 ~dst:2 ~seq:0 ~step:3 ~sent:2 ~adv:1 ~forced:0
      ~fifo:0;
    step ~ts:0.4 2 ~global:4 ~pidx:1;
    mk ~phase:Events.Instant ~cat:"detector" ~ts:0.4 ~proc:2
      ~args:[ ("step", Json.Int 4); ("leader", Json.Int 0) ]
      "ct_stabilized";
  ]

let test_dag_critical_path () =
  match Analyze.of_events dag_events with
  | Error e -> Alcotest.failf "of_events: %s" e
  | Ok r ->
      Alcotest.(check int) "procs" 3 r.Analyze.procs;
      Alcotest.(check int) "steps" 5 r.Analyze.steps;
      Alcotest.(check bool) "stabilized" true (r.Analyze.stabilized = Some (4, 2));
      let p =
        match r.Analyze.critical with
        | Some p -> p
        | None -> Alcotest.fail "no critical path"
      in
      Alcotest.(check string) "anchor name" "ct_stabilized" p.Analyze.end_name;
      Alcotest.(check int) "end step" 4 p.Analyze.end_step;
      Alcotest.(check int) "end proc" 2 p.Analyze.end_proc;
      (* the telescoping invariant: total attributed delay along the
         path equals the observed stabilization step *)
      Alcotest.(check int) "total telescopes" 4 p.Analyze.total;
      (match p.Analyze.hops with
      | [ Analyze.Start s; Analyze.Recv r0; Analyze.Recv r1 ] ->
          Alcotest.(check int) "starts at p0" 0 s.proc;
          Alcotest.(check int) "start global" 0 s.global;
          Alcotest.(check int) "first msg" 0 r0.msg.Analyze.mid;
          Alcotest.(check int) "first hop weight" 2 (Analyze.hop_weight (Analyze.Recv r0));
          Alcotest.(check int) "second msg" 1 r1.msg.Analyze.mid;
          Alcotest.(check int) "second hop lands at anchor" 4 r1.to_global
      | hops -> Alcotest.failf "unexpected hop shape (%d hops)" (List.length hops));
      (* drop lineage is reported even off the critical path *)
      let dropped = List.filter (fun m -> m.Analyze.dropped) r.Analyze.msgs in
      Alcotest.(check int) "one dropped msg" 1 (List.length dropped);
      Alcotest.(check int) "dropped mid" 2 (List.hd dropped).Analyze.mid

let test_dag_rejects_orphan_deliver () =
  let orphan =
    [
      step ~ts:0.0 0 ~global:0 ~pidx:0;
      deliver ~ts:0.1 ~mid:9 ~src:0 ~dst:1 ~seq:0 ~step:1 ~sent:0 ~adv:1 ~forced:0
        ~fifo:0;
    ]
  in
  match Analyze.of_events orphan with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_events accepted a deliver with no send edge"

(* --------------------------------------- traced CT run, end to end *)

let test_run_ct_telescopes () =
  let events = Events.memory () in
  let obs = Obs.create ~events () in
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let run = Net_systems.run_ct ~obs ~clients:2 ~adversary ~max_steps:60 () in
  let s =
    match run.Net_systems.stabilized_from with
    | Some s -> s
    | None -> Alcotest.fail "run_ct did not stabilize"
  in
  match Analyze.of_events (Events.events events) with
  | Error e -> Alcotest.failf "of_events on traced run: %s" e
  | Ok r ->
      let p =
        match r.Analyze.critical with
        | Some p -> p
        | None -> Alcotest.fail "traced run has no critical path"
      in
      Alcotest.(check string) "ends at the anchor" "ct_stabilized" p.Analyze.end_name;
      Alcotest.(check int) "end step is stabilized_from" s p.Analyze.end_step;
      Alcotest.(check int)
        "attributed delay telescopes to stabilization time" s p.Analyze.total

(* --------------------------------------- due_explained agrees with due *)

let test_due_explained_consistent () =
  let policies =
    [
      ("drop", fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Drop);
      ("fast", fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Deliver 1);
      ("slow", fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Deliver 50);
      ( "alternating",
        fun ~now ~src:_ ~dst:_ ~seq:_ ->
          if now mod 2 = 0 then Adversary.Drop else Adversary.Deliver (now + 1) );
    ]
  in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (delta, gst) ->
          let a = Adversary.make ~delta ~gst policy in
          for now = 0 to gst + (2 * delta) + 2 do
            let v = Adversary.due_explained a ~now ~src:0 ~dst:1 ~seq:now in
            let label = Printf.sprintf "%s delta=%d gst=%d now=%d" pname delta gst now in
            Alcotest.(check (option int))
              (label ^ ": due_at = due")
              (Adversary.due a ~now ~src:0 ~dst:1 ~seq:now)
              v.Adversary.due_at;
            Alcotest.(check bool) (label ^ ": denied >= 0") true (v.Adversary.denied >= 0);
            (* pre_gst marks exactly the verdicts decided before GST *)
            Alcotest.(check bool)
              (label ^ ": pre_gst flag")
              (now < gst) v.Adversary.pre_gst;
            (* a forced verdict is a post-GST drop held to exactly Δ *)
            if v.Adversary.forced then
              Alcotest.(check (option int))
                (label ^ ": forced is a Δ-clamp")
                (Some (now + delta))
                v.Adversary.due_at;
            (* realized + denied ticks account for the request *)
            match (v.Adversary.due_at, v.Adversary.requested) with
            | Some at, Some r when not v.Adversary.forced ->
                Alcotest.(check int)
                  (label ^ ": realized + denied = requested")
                  (max 1 r) (at - now + v.Adversary.denied)
            | _ -> ()
          done)
        [ (1, 4); (2, 5); (3, 0) ])
    policies

let () =
  Alcotest.run "analyze"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "event json round-trip (all phases)" `Quick
            test_event_roundtrip;
          Alcotest.test_case "event_of_json rejects malformed" `Quick
            test_event_of_json_rejects;
          Alcotest.test_case "jsonl file round-trip" `Quick test_load_jsonl_roundtrip;
        ] );
      ( "writer",
        [
          Alcotest.test_case "bytes = reference (seed 1)" `Quick (test_writer_oracle 1);
          Alcotest.test_case "bytes = reference (seed 2)" `Quick (test_writer_oracle 2);
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "hand-built 3-process DAG" `Quick test_dag_critical_path;
          Alcotest.test_case "orphan deliver rejected" `Quick
            test_dag_rejects_orphan_deliver;
          Alcotest.test_case "indexed walk = linear-scan reference" `Quick
            test_analysis_oracle;
        ] );
      ( "integration",
        [
          Alcotest.test_case "traced CT run telescopes" `Quick test_run_ct_telescopes;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "due_explained agrees with due" `Quick
            test_due_explained_consistent;
        ] );
    ]
