(* Structured event tracing: typed events with timestamps, process and
   worker ids, and span begin/end pairs, collected by a sink and
   serialized to JSONL or to the Chrome trace-event format
   (chrome://tracing / Perfetto).

   The [Nop] sink is the default everywhere: call sites guard emission
   with [enabled], so an un-traced run pays one branch per potential
   event and allocates nothing. The [Mem] sink is a mutex-protected
   ring — events from any domain, bounded memory, oldest events
   dropped (and counted) on overflow — that grows on demand, so an
   idle or short trace never pays for the full capacity. *)

type phase = Instant | Begin | End | Async_begin | Async_end

type event = {
  ts : float;  (* seconds since the sink was created *)
  name : string;
  cat : string;
  phase : phase;
  proc : int option;
  worker : int option;
  id : int option;  (* correlates Async_begin/Async_end pairs *)
  args : (string * Json.t) list;
}

(* The ring starts at [initial_slots] and doubles on demand up to
   [capacity], so a sink sized for a million events costs nothing
   until it is used. It only grows while it has never wrapped, which
   keeps event [i] at slot [i mod Array.length buf] throughout: before
   the ring is full that is slot [i], after it the length is
   [capacity]. *)
type mem = {
  capacity : int;
  mutable buf : event array;  (* slots >= next are [placeholder] until filled *)
  mutable next : int;  (* total events accepted; next mod length is the slot *)
  epoch : float;
  mu : Mutex.t;
}

type t = Nop | Mem of mem

let nop = Nop

let default_capacity = 1 lsl 20

let initial_slots = 64

let placeholder =
  {
    ts = 0.;
    name = "";
    cat = "";
    phase = Instant;
    proc = None;
    worker = None;
    id = None;
    args = [];
  }

let memory ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Events.memory: capacity must be positive";
  Mem
    {
      capacity;
      buf = Array.make (min capacity initial_slots) placeholder;
      next = 0;
      epoch = Unix.gettimeofday ();
      mu = Mutex.create ();
    }

let enabled = function Nop -> false | Mem _ -> true

let emit t ?proc ?worker ?id ?(args = []) ?(phase = Instant) ~cat name =
  match t with
  | Nop -> ()
  | Mem m ->
      let ts = Unix.gettimeofday () -. m.epoch in
      let e = { ts; name; cat; phase; proc; worker; id; args } in
      Mutex.lock m.mu;
      let len = Array.length m.buf in
      if m.next = len && len < m.capacity then begin
        let grown = Array.make (min m.capacity (2 * len)) placeholder in
        Array.blit m.buf 0 grown 0 len;
        m.buf <- grown
      end;
      m.buf.(m.next mod Array.length m.buf) <- e;
      m.next <- m.next + 1;
      Mutex.unlock m.mu

let span t ?proc ?worker ?(args = []) ~cat name f =
  match t with
  | Nop -> f ()
  | Mem _ ->
      emit t ?proc ?worker ~args ~phase:Begin ~cat name;
      let finally () = emit t ?proc ?worker ~phase:End ~cat name in
      Fun.protect ~finally f

let recorded = function Nop -> 0 | Mem m -> m.next

let dropped = function Nop -> 0 | Mem m -> max 0 (m.next - m.capacity)

(* the retained events, oldest first, copied out under the lock *)
let retained = function
  | Nop -> [||]
  | Mem m ->
      Mutex.lock m.mu;
      let len = Array.length m.buf in
      let count = min m.next len in
      let first = (m.next - count) mod len in
      let out =
        Array.init count (fun i ->
            let slot = first + i in
            m.buf.(if slot >= len then slot - len else slot))
      in
      Mutex.unlock m.mu;
      out

let events t = Array.to_list (retained t)

(* ---------------------------------------------------- serialization *)

let phase_string = function
  | Instant -> "i"
  | Begin -> "B"
  | End -> "E"
  | Async_begin -> "b"
  | Async_end -> "e"

let phase_of_string = function
  | "i" -> Some Instant
  | "B" -> Some Begin
  | "E" -> Some End
  | "b" -> Some Async_begin
  | "e" -> Some Async_end
  | _ -> None

let event_to_json e =
  Json.Obj
    (("ts", Json.Float e.ts)
     :: ("name", Json.String e.name)
     :: ("cat", Json.String e.cat)
     :: ("ph", Json.String (phase_string e.phase))
     :: ((match e.proc with Some p -> [ ("proc", Json.Int p) ] | None -> [])
        @ (match e.worker with Some w -> [ ("worker", Json.Int w) ] | None -> [])
        @ (match e.id with Some i -> [ ("id", Json.Int i) ] | None -> [])
        @ match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ]))

(* One pass over the fields into [slots] (ts, name, cat, ph, proc,
   worker, id, args, then one slot for every other key). The first
   occurrence of a key wins, as with [Json.member]; [absent] marks a
   key not seen yet. *)
let absent = Json.String "absent"

let rec scan_fields slots = function
  | [] -> ()
  | (k, v) :: rest ->
      let i =
        match k with
        | "ts" -> 0
        | "name" -> 1
        | "cat" -> 2
        | "ph" -> 3
        | "proc" -> 4
        | "worker" -> 5
        | "id" -> 6
        | "args" -> 7
        | _ -> 8
      in
      if slots.(i) == absent then slots.(i) <- v;
      scan_fields slots rest

let event_of_json j =
  let slots = Array.make 9 absent in
  (match j with Json.Obj kvs -> scan_fields slots kvs | _ -> ());
  let get i = if slots.(i) == absent then Json.Null else slots.(i) in
  match (get 0, get 1, get 2, get 3) with
  | ((Json.Float _ | Json.Int _) as ts), Json.String name, Json.String cat, Json.String ph -> (
      match phase_of_string ph with
      | None -> Error (Printf.sprintf "unknown event phase %S" ph)
      | Some phase ->
          let ts =
            match ts with Json.Int i -> float_of_int i | Json.Float f -> f | _ -> Float.nan
          in
          let args = match get 7 with Json.Obj kvs -> kvs | _ -> [] in
          let int i = Json.to_int (get i) in
          Ok { ts; name; cat; phase; proc = int 4; worker = int 5; id = int 6; args })
  | _ -> Error "event missing one of ts/name/cat/ph"

(* Chrome trace-event format: an array of {name, cat, ph, ts (µs),
   pid, tid, args}. We map the worker id (else the process id) to the
   Chrome thread id, so chrome://tracing lays spans out one row per
   worker/process. Instants carry scope "t" (thread-local). *)
let event_to_chrome e =
  let tid = match (e.worker, e.proc) with Some w, _ -> w | None, Some p -> p | None, None -> 0 in
  let args =
    (match e.proc with Some p -> [ ("proc", Json.Int p) ] | None -> [])
    @ (match e.worker with Some w -> [ ("worker", Json.Int w) ] | None -> [])
    @ e.args
  in
  Json.Obj
    (("name", Json.String e.name)
     :: ("cat", Json.String e.cat)
     :: ("ph", Json.String (phase_string e.phase))
     :: ("ts", Json.Float (e.ts *. 1e6))
     :: ("pid", Json.Int 1)
     :: ("tid", Json.Int tid)
     :: ((match e.phase with
         | Instant -> [ ("s", Json.String "t") ]
         | Begin | End -> []
         | Async_begin | Async_end ->
             (* async pairs are matched by (cat, id); default id 0 keeps
                the output well-formed even for a stray unpaired event *)
             [ ("id", Json.Int (Option.value e.id ~default:0)) ])
        @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ]))

(* Serialize every retained event into one reused buffer, flushed to
   [oc] whenever it passes [flush_bytes]: [sep] goes between events,
   [after] after each. *)
let flush_bytes = 1 lsl 16

let write_events ~sep ~after to_json t oc =
  let buf = Buffer.create (flush_bytes + 4096) in
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf sep;
      Json.to_buffer buf (to_json e);
      Buffer.add_string buf after;
      if Buffer.length buf >= flush_bytes then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    (retained t);
  Buffer.output_buffer oc buf

let write_jsonl t oc = write_events ~sep:"" ~after:"\n" event_to_json t oc

let write_chrome t oc =
  output_string oc "[";
  write_events ~sep:",\n" ~after:"" event_to_chrome t oc;
  output_string oc "]\n"

let save_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_jsonl t oc)

let save_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_chrome t oc)

let pp_event ppf e = Json.pp ppf (event_to_json e)
