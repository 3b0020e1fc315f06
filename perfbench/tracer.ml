(* Spans recorded from outside the program, around calls into each
   layer's public functions.

   A coarse span is kept per call of a harness-level function
   (Ag_harness.solve, Explorer.explore, Events.write_jsonl, ...). The
   per-step hooks (source pulls, substrate pre_step, the Netmem round
   policy, on_step) fire millions of times per run, so each of those
   is folded into one aggregate span per (job, layer) holding its call
   count and summed duration; its time is charged to the innermost
   open coarse span as child time the moment the call returns. A
   span's self time is its duration minus its children's, so the self
   times of one job's spans add up to the job's wall time exactly. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer =
  | Job  (** the whole job, as the closed-loop client sees it *)
  | Harness
      (** Ag_harness.solve / Fd_harness.run / Executor.run: executor,
          fibers, Store and local algorithm code, minus the hooks below *)
  | Schedule  (** source pulls (Source, Generators, Adaptive.source) *)
  | Pre_step  (** Substrate.pre_step of the net substrate (deliver + Netmem pump) *)
  | Boost  (** Netmem.round_policy *)
  | On_step  (** the executor's on_step hook: Net_systems.run_ct's stabilization observer *)
  | Explore  (** Explorer.explore *)
  | Fuzz  (** Fuzz.run *)
  | Export  (** Events.write_jsonl *)
  | Analyze  (** Analyze.load_jsonl + Analyze.of_events *)

let all = [| Job; Harness; Schedule; Pre_step; Boost; On_step; Explore; Fuzz; Export; Analyze |]

let index = function
  | Job -> 0
  | Harness -> 1
  | Schedule -> 2
  | Pre_step -> 3
  | Boost -> 4
  | On_step -> 5
  | Explore -> 6
  | Fuzz -> 7
  | Export -> 8
  | Analyze -> 9

let name = function
  | Job -> "job"
  | Harness -> "harness"
  | Schedule -> "schedule"
  | Pre_step -> "net.pre_step"
  | Boost -> "netmem.boost"
  | On_step -> "on_step"
  | Explore -> "explore"
  | Fuzz -> "fuzz"
  | Export -> "obs.export"
  | Analyze -> "obs.analyze"

type span = {
  job : int;
  layer : layer;
  start_ns : int;
  mutable dur_ns : int;
  mutable child_ns : int;
  calls : int;  (** 1 for a coarse span; the call count of an aggregate *)
}

let self_ns s = s.dur_ns - s.child_ns

type t = {
  mutable job : int;
  mutable spans : span list;  (** closed spans, newest first *)
  mutable stack : span list;  (** open coarse spans, innermost first *)
  calls : int array;  (** current job's per-step calls, per layer *)
  ns : int array;
  mutable boost_granted : int;  (** round-policy calls that named an owner *)
}

let create () =
  {
    job = 0;
    spans = [];
    stack = [];
    calls = Array.make (Array.length all) 0;
    ns = Array.make (Array.length all) 0;
    boost_granted = 0;
  }

let charge_parent tr dt =
  match tr.stack with p :: _ -> p.child_ns <- p.child_ns + dt | [] -> ()

let span tr layer f =
  let s : span = { job = tr.job; layer; start_ns = now_ns (); dur_ns = 0; child_ns = 0; calls = 1 } in
  tr.stack <- s :: tr.stack;
  let close () =
    s.dur_ns <- now_ns () - s.start_ns;
    tr.stack <- List.tl tr.stack;
    charge_parent tr s.dur_ns;
    tr.spans <- s :: tr.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* [fine tr layer t0] closes a per-step call that started at [t0]; the
   call sites read the clock themselves so that no closure is
   allocated per step. *)
let fine tr layer t0 =
  let dt = now_ns () - t0 in
  let i = index layer in
  tr.calls.(i) <- tr.calls.(i) + 1;
  tr.ns.(i) <- tr.ns.(i) + dt;
  charge_parent tr dt

(* Run one job under a root [Job] span, then fold its per-step calls
   into one aggregate span per layer. *)
let job tr id f =
  tr.job <- id;
  Array.fill tr.calls 0 (Array.length tr.calls) 0;
  Array.fill tr.ns 0 (Array.length tr.ns) 0;
  let finish () =
    Array.iteri
      (fun i c ->
        if c > 0 then
          tr.spans <-
            { job = id; layer = all.(i); start_ns = 0; dur_ns = tr.ns.(i); child_ns = 0; calls = c }
            :: tr.spans)
      tr.calls
  in
  match span tr Job f with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans tr = List.rev tr.spans

(* Per-layer totals over every recorded span: (self ns, calls). *)
let totals tr =
  let self = Array.make (Array.length all) 0 and calls = Array.make (Array.length all) 0 in
  List.iter
    (fun (s : span) ->
      let i = index s.layer in
      self.(i) <- self.(i) + self_ns s;
      calls.(i) <- calls.(i) + s.calls)
    tr.spans;
  (self, calls)

let write_jsonl tr file =
  let oc = open_out file in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"job\":%d,\"layer\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d,\"self_ns\":%d,\"calls\":%d}\n"
        s.job (name s.layer) s.start_ns s.dur_ns (self_ns s) s.calls)
    (spans tr);
  close_out oc
