(* Trace analysis: reconstruct the happens-before DAG of a traced run
   from its JSONL event stream and attribute time along it.

   The DAG is implicit in the event conventions of the instrumented
   layers (DESIGN.md §9):

   - program order: each [runtime.step] event names (proc, global,
     pidx); consecutive steps of one process are an edge;
   - message edges: [net.send]/[net.deliver]/[net.drop] share a [mid]
     (the per-message cause id); a delivered message is an edge from
     the sender's step at [sent] to every step of the destination at
     global >= the delivery tick (transitively equivalent to routing
     through the actual recv step);
   - the anchor: [detector.ct_stabilized] names the global step its
     claim holds from.

   The critical path walks back from the anchor, at each step choosing
   the latest-finishing dependency — the latest message delivered to
   the process no later than this step, or else the process's own
   previous step — and jumping through message edges to the sending
   step. Node times strictly decrease, so the walk terminates; a
   virtual start hop accounts the schedule wait before the first step,
   which makes the hop weights telescope: their sum is exactly the
   anchor's global step. *)

type msg = {
  mid : int;
  src : int;
  dst : int;
  seq : int;
  sent_step : int;
  delivered_step : int option;
  dropped : bool;
  (* latency attribution from the deliver event; zero when the trace
     predates attribution or the components were unavailable *)
  adv : int;
  forced : int;
  fifo : int;
  denied : int;
  pre_gst : bool;
}

type hop =
  | Start of { proc : int; global : int }
      (** schedule wait: [proc] took its step at [global], nothing
          before it on the path — weight [global - 0] *)
  | Local of { proc : int; from_global : int; to_global : int }
      (** program order: [proc] stepped at [from_global], then at
          [to_global] — weight [to_global - from_global] *)
  | Recv of { msg : msg; to_proc : int; to_global : int; wait : int }
      (** message edge: the send step at [msg.sent_step] to the
          destination step at [to_global]; weight
          [to_global - msg.sent_step] = adv + forced + fifo + wait,
          where [wait] is the inbox dwell from delivery tick to the
          step that could first read it *)

let hop_weight = function
  | Start h -> h.global
  | Local h -> h.to_global - h.from_global
  | Recv h -> h.to_global - h.msg.sent_step

type path = {
  hops : hop list;  (** causal order: the [Start] hop first *)
  total : int;  (** sum of hop weights = the anchor's global step *)
  end_step : int;
  end_proc : int;
  end_name : string;  (** name of the anchor event, e.g. ["ct_stabilized"] *)
}

type pair_stats = {
  p_src : int;
  p_dst : int;
  p_delivered : int;
  p_dropped : int;
  p_delay_total : int;
  p_delay_max : int;
  p_adv : int;
  p_forced : int;
  p_fifo : int;
  p_denied : int;
}

type proc_stats = {
  s_proc : int;
  s_steps : int;
  s_sent : int;
  s_received : int;
  s_recv_delay_total : int;
}

type report = {
  events : int;
  procs : int;
  steps : int;
  msgs : msg list;  (** ascending [mid] *)
  stabilized : (int * int) option;  (** anchor (global step, proc) *)
  critical : path option;  (** [None] without an anchor *)
  pairs : pair_stats list;  (** pairs with traffic, ascending (src, dst) *)
  per_proc : proc_stats list;
}

(* ------------------------------------------------------- JSONL input *)

(* The file is read once; each line is parsed where it sits. *)
let load_jsonl path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let len = String.length text in
  let rec go pos lineno acc =
    if pos >= len then Ok (List.rev acc)
    else
      let eol = Option.value (String.index_from_opt text pos '\n') ~default:len in
      if eol = pos then go (eol + 1) (lineno + 1) acc
      else
        match Json.of_substring text ~pos ~len:(eol - pos) with
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
        | Ok j -> (
            match Events.event_of_json j with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
            | Ok ev -> go (eol + 1) (lineno + 1) (ev :: acc))
  in
  go 0 1 []

(* ------------------------------------------------------ DAG building *)

(* [List.assoc] by [String.equal], not polymorphic compare: these
   lookups run several times per event *)
let rec arg name = function
  | [] -> Json.Null
  | (k, v) :: rest -> if String.equal k name then v else arg name rest

let arg_int name (e : Events.event) = Json.to_int (arg name e.args)

let arg_bool name (e : Events.event) =
  match arg name e.args with Json.Bool b -> Some b | _ -> None

let of_events evs =
  let steps_by_proc : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let proc_at : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let msgs : (int, msg) Hashtbl.t = Hashtbl.create 256 in
  let count = ref 0 in
  let stab = ref None in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  List.iter
    (fun (e : Events.event) ->
      incr count;
      match (e.cat, e.name) with
      | "runtime", "step" -> (
          match (e.proc, arg_int "global" e) with
          | Some p, Some g ->
              Hashtbl.replace proc_at g p;
              let l =
                match Hashtbl.find_opt steps_by_proc p with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add steps_by_proc p l;
                    l
              in
              l := g :: !l
          | _ -> fail "runtime.step event without proc/global")
      | "net", "send" -> (
          match (arg_int "mid" e, e.proc, arg_int "dst" e, arg_int "seq" e, arg_int "step" e)
          with
          | Some mid, Some src, Some dst, Some seq, Some step ->
              Hashtbl.replace msgs mid
                {
                  mid;
                  src;
                  dst;
                  seq;
                  sent_step = step;
                  delivered_step = None;
                  dropped = false;
                  adv = 0;
                  forced = 0;
                  fifo = 0;
                  denied = 0;
                  pre_gst = false;
                }
          | _ -> fail "net.send event missing mid/src/dst/seq/step")
      | "net", "deliver" -> (
          match (arg_int "mid" e, arg_int "step" e) with
          | Some mid, Some step -> (
              match Hashtbl.find_opt msgs mid with
              | None -> fail "net.deliver for mid %d with no send edge" mid
              | Some m ->
                  Hashtbl.replace msgs mid
                    {
                      m with
                      delivered_step = Some step;
                      adv = Option.value (arg_int "adv" e) ~default:0;
                      forced = Option.value (arg_int "forced" e) ~default:0;
                      fifo = Option.value (arg_int "fifo" e) ~default:0;
                      denied = Option.value (arg_int "denied" e) ~default:0;
                      pre_gst = Option.value (arg_bool "pre_gst" e) ~default:false;
                    })
          | _ -> fail "net.deliver event missing mid/step")
      | "net", "drop" -> (
          match arg_int "mid" e with
          | Some mid -> (
              match Hashtbl.find_opt msgs mid with
              | None -> fail "net.drop for mid %d with no send edge" mid
              | Some m -> Hashtbl.replace msgs mid { m with dropped = true })
          | None -> fail "net.drop event missing mid")
      | "detector", "ct_stabilized" -> (
          match (arg_int "step" e, e.proc) with
          | Some s, p -> stab := Some (s, p, e.name)
          | None, _ -> fail "ct_stabilized event missing step")
      | _ -> ())
    evs;
  match !err with
  | Some e -> Error e
  | None ->
      (* each process's steps, ascending — sorted once *)
      let sorted_steps = Hashtbl.create 16 in
      Hashtbl.iter
        (fun p l ->
          let a = Array.of_list !l in
          Array.sort Int.compare a;
          Hashtbl.replace sorted_steps p a)
        steps_by_proc;
      let steps_of p = Option.value (Hashtbl.find_opt sorted_steps p) ~default:[||] in
      let procs =
        let stepped = Hashtbl.fold (fun p _ m -> max p m) steps_by_proc (-1) in
        let messaged = Hashtbl.fold (fun _ m acc -> max acc (max m.src m.dst)) msgs (-1) in
        1 + max stepped messaged
      in
      let steps = Hashtbl.length proc_at in
      let msg_list =
        Hashtbl.fold (fun _ m acc -> m :: acc) msgs []
        |> List.sort (fun a b -> Int.compare a.mid b.mid)
      in
      let delivery m = match m.delivered_step with Some d -> d | None -> -1 in
      (* messages delivered to each proc, ascending (delivery tick, mid) *)
      let delivered_to =
        let lists = Array.make (max procs 1) [] in
        List.iter
          (fun m ->
            if m.delivered_step <> None && m.dst >= 0 && m.dst < Array.length lists then
              lists.(m.dst) <- m :: lists.(m.dst))
          msg_list;
        Array.map
          (fun l ->
            let a = Array.of_list l in
            Array.sort
              (fun a b ->
                let c = Int.compare (delivery a) (delivery b) in
                if c <> 0 then c else Int.compare a.mid b.mid)
              a;
            a)
          lists
      in
      let critical =
        match !stab with
        | None -> Ok None
        | Some (s, anchor_proc, end_name) -> (
            let proc_of_step g =
              match Hashtbl.find_opt proc_at g with
              | Some p -> Ok p
              | None -> Error (Printf.sprintf "no runtime.step event at global %d" g)
            in
            (* index of the last element of ascending [a] whose key
               satisfies [ok], or -1; [ok] holds on a prefix *)
            let last_where a key ok =
              let rec search lo hi best =
                if lo > hi then best
                else
                  let mid = (lo + hi) / 2 in
                  if ok (key a.(mid)) then search (mid + 1) hi mid else search lo (mid - 1) best
              in
              search 0 (Array.length a - 1) (-1)
            in
            let prev_step p g =
              let a = steps_of p in
              match last_where a Fun.id (fun s -> s < g) with -1 -> None | i -> Some a.(i)
            in
            let latest_delivery p g =
              (* latest message delivered to p at a tick <= g *)
              if p < 0 || p >= Array.length delivered_to then None
              else
                let a = delivered_to.(p) in
                match last_where a delivery (fun d -> d <= g) with -1 -> None | i -> Some a.(i)
            in
            let rec walk p g acc =
              (* the gating dependency of step (p, g): the
                 latest-finishing of p's previous step and the latest
                 message delivered to p by tick g (ties prefer the
                 message — the more informative edge) *)
              let gate =
                match (latest_delivery p g, prev_step p g) with
                | Some m, None -> `Msg m
                | None, Some lg -> `Local lg
                | None, None -> `Start
                | Some m, Some lg -> (
                    match m.delivered_step with
                    | Some d when d >= lg -> `Msg m
                    | _ -> `Local lg)
              in
              match gate with
              | `Msg m ->
                  let d = Option.get m.delivered_step in
                  let hop = Recv { msg = m; to_proc = p; to_global = g; wait = g - d } in
                  walk m.src m.sent_step (hop :: acc)
              | `Local lg ->
                  walk p lg (Local { proc = p; from_global = lg; to_global = g } :: acc)
              | `Start -> Start { proc = p; global = g } :: acc
            in
            match proc_of_step s with
            | Error e -> Error e
            | Ok p ->
                (match anchor_proc with
                | Some ap when ap <> p ->
                    (* trust the step table; the anchor's proc hint is advisory *)
                    ()
                | _ -> ());
                let hops = walk p s [] in
                Ok
                  (Some
                     {
                       hops;
                       total = List.fold_left (fun acc h -> acc + hop_weight h) 0 hops;
                       end_step = s;
                       end_proc = p;
                       end_name;
                     }))
      in
      let pair_tbl = Hashtbl.create 32 in
      List.iter
        (fun m ->
          let key = (m.src, m.dst) in
          let p =
            match Hashtbl.find_opt pair_tbl key with
            | Some p -> p
            | None ->
                {
                  p_src = m.src;
                  p_dst = m.dst;
                  p_delivered = 0;
                  p_dropped = 0;
                  p_delay_total = 0;
                  p_delay_max = 0;
                  p_adv = 0;
                  p_forced = 0;
                  p_fifo = 0;
                  p_denied = 0;
                }
          in
          let p =
            match m.delivered_step with
            | Some d ->
                let delay = d - m.sent_step in
                {
                  p with
                  p_delivered = p.p_delivered + 1;
                  p_delay_total = p.p_delay_total + delay;
                  p_delay_max = max p.p_delay_max delay;
                  p_adv = p.p_adv + m.adv;
                  p_forced = p.p_forced + m.forced;
                  p_fifo = p.p_fifo + m.fifo;
                  p_denied = p.p_denied + m.denied;
                }
            | None ->
                if m.dropped then { p with p_dropped = p.p_dropped + 1 } else p
          in
          Hashtbl.replace pair_tbl key p)
        msg_list;
      let pairs =
        Hashtbl.fold (fun _ p acc -> p :: acc) pair_tbl []
        |> List.sort (fun a b -> compare (a.p_src, a.p_dst) (b.p_src, b.p_dst))
      in
      let per_proc =
        let n = max procs 0 in
        let sent = Array.make n 0 and received = Array.make n 0 and delay = Array.make n 0 in
        List.iter
          (fun m ->
            if m.src >= 0 && m.src < n then sent.(m.src) <- sent.(m.src) + 1;
            match m.delivered_step with
            | Some d when m.dst >= 0 && m.dst < n ->
                received.(m.dst) <- received.(m.dst) + 1;
                delay.(m.dst) <- delay.(m.dst) + d - m.sent_step
            | _ -> ())
          msg_list;
        List.init n (fun p ->
            {
              s_proc = p;
              s_steps = Array.length (steps_of p);
              s_sent = sent.(p);
              s_received = received.(p);
              s_recv_delay_total = delay.(p);
            })
      in
      (match critical with
      | Error e -> Error e
      | Ok critical ->
          (* the anchor proc reported outward is the one the step table
             names (the critical path's end), falling back to the
             event's own hint *)
          let stabilized =
            match (!stab, critical) with
            | Some (s, _, _), Some p -> Some (s, p.end_proc)
            | Some (s, hint, _), None -> Some (s, Option.value hint ~default:0)
            | None, _ -> None
          in
          Ok
            {
              events = !count;
              procs;
              steps;
              msgs = msg_list;
              stabilized;
              critical;
              pairs;
              per_proc;
            })

(* ---------------------------------------------------------- printing *)

let pp_msg_label ppf m = Fmt.pf ppf "msg %d p%d->p%d#%d" m.mid m.src m.dst m.seq

let pp_hop ppf = function
  | Start h -> Fmt.pf ppf "start       -> p%d@%-4d  +%d (schedule wait)" h.proc h.global h.global
  | Local h ->
      Fmt.pf ppf "p%d@%-4d     -> p%d@%-4d  +%d (program order)" h.proc h.from_global h.proc
        h.to_global (h.to_global - h.from_global)
  | Recv h ->
      let m = h.msg in
      Fmt.pf ppf "p%d@%-4d     -> p%d@%-4d  +%d (%a: adv %d + forced %d + fifo %d + wait %d%s%s)"
        m.src m.sent_step h.to_proc h.to_global (h.to_global - m.sent_step) pp_msg_label m m.adv
        m.forced m.fifo h.wait
        (if m.denied > 0 then Fmt.str ", denied %d" m.denied else "")
        (if m.pre_gst then ", pre-GST" else "")

let pp_path ppf p =
  Fmt.pf ppf "critical path to %s (step %d, p%d):@," p.end_name p.end_step p.end_proc;
  List.iter (fun h -> Fmt.pf ppf "  %a@," pp_hop h) p.hops;
  Fmt.pf ppf "  total +%d steps = %s at step %d" p.total p.end_name p.end_step

let pp_report ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "trace: %d events, %d processes, %d steps, %d messages@," r.events r.procs r.steps
    (List.length r.msgs);
  (match r.stabilized with
  | Some (s, p) -> Fmt.pf ppf "stabilized: step %d (p%d)@," s p
  | None -> Fmt.pf ppf "stabilized: never (violated or truncated run)@,");
  (match r.critical with
  | Some p -> Fmt.pf ppf "%a@," pp_path p
  | None -> ());
  let delivered = List.filter (fun m -> m.delivered_step <> None) r.msgs in
  let dropped = List.filter (fun m -> m.dropped) r.msgs in
  if r.pairs <> [] then begin
    Fmt.pf ppf "per-pair delays (delivered/dropped, total = adv + forced + fifo):@,";
    List.iter
      (fun p ->
        Fmt.pf ppf "  p%d->p%d: %d delivered, %d dropped" p.p_src p.p_dst p.p_delivered
          p.p_dropped;
        if p.p_delivered > 0 then
          Fmt.pf ppf ", delay total %d (max %d) = adv %d + forced %d + fifo %d%s"
            p.p_delay_total p.p_delay_max p.p_adv p.p_forced p.p_fifo
            (if p.p_denied > 0 then Fmt.str " (denied %d)" p.p_denied else "");
        Fmt.pf ppf "@,")
      r.pairs
  end;
  Fmt.pf ppf "per-process: ";
  Fmt.pf ppf "%a@,"
    Fmt.(list ~sep:(any "; ") (fun ppf s ->
        pf ppf "p%d %d steps %d sent %d recvd" s.s_proc s.s_steps s.s_sent s.s_received))
    r.per_proc;
  if dropped <> [] then begin
    Fmt.pf ppf "drop lineage (%d of %d messages dropped):@," (List.length dropped)
      (List.length r.msgs);
    List.iter
      (fun m -> Fmt.pf ppf "  %a sent at step %d, dropped pre-GST@," pp_msg_label m m.sent_step)
      dropped
  end;
  ignore delivered;
  Fmt.pf ppf "@]"

let hop_to_json h =
  let common kind extra =
    Json.Obj ((("kind", Json.String kind) :: extra) @ [ ("weight", Json.Int (hop_weight h)) ])
  in
  match h with
  | Start s -> common "start" [ ("proc", Json.Int s.proc); ("global", Json.Int s.global) ]
  | Local l ->
      common "local"
        [
          ("proc", Json.Int l.proc);
          ("from", Json.Int l.from_global);
          ("to", Json.Int l.to_global);
        ]
  | Recv r ->
      common "recv"
        [
          ("mid", Json.Int r.msg.mid);
          ("src", Json.Int r.msg.src);
          ("dst", Json.Int r.to_proc);
          ("seq", Json.Int r.msg.seq);
          ("sent", Json.Int r.msg.sent_step);
          ("to", Json.Int r.to_global);
          ("adv", Json.Int r.msg.adv);
          ("forced", Json.Int r.msg.forced);
          ("fifo", Json.Int r.msg.fifo);
          ("wait", Json.Int r.wait);
          ("denied", Json.Int r.msg.denied);
          ("pre_gst", Json.Bool r.msg.pre_gst);
        ]

let report_to_json r =
  Json.Obj
    [
      ("schema", Json.String "setsync-trace-report/1");
      ("events", Json.Int r.events);
      ("procs", Json.Int r.procs);
      ("steps", Json.Int r.steps);
      ("messages", Json.Int (List.length r.msgs));
      ( "dropped",
        Json.List
          (List.filter_map
             (fun m ->
               if m.dropped then
                 Some
                   (Json.Obj
                      [
                        ("mid", Json.Int m.mid);
                        ("src", Json.Int m.src);
                        ("dst", Json.Int m.dst);
                        ("seq", Json.Int m.seq);
                        ("sent", Json.Int m.sent_step);
                      ])
               else None)
             r.msgs) );
      ( "stabilized",
        match r.stabilized with
        | Some (s, p) -> Json.Obj [ ("step", Json.Int s); ("proc", Json.Int p) ]
        | None -> Json.Null );
      ( "critical_path",
        match r.critical with
        | None -> Json.Null
        | Some p ->
            Json.Obj
              [
                ("end", Json.String p.end_name);
                ("end_step", Json.Int p.end_step);
                ("end_proc", Json.Int p.end_proc);
                ("total", Json.Int p.total);
                ("hops", Json.List (List.map hop_to_json p.hops));
              ] );
      ( "pairs",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("src", Json.Int p.p_src);
                   ("dst", Json.Int p.p_dst);
                   ("delivered", Json.Int p.p_delivered);
                   ("dropped", Json.Int p.p_dropped);
                   ("delay_total", Json.Int p.p_delay_total);
                   ("delay_max", Json.Int p.p_delay_max);
                   ("adv", Json.Int p.p_adv);
                   ("forced", Json.Int p.p_forced);
                   ("fifo", Json.Int p.p_fifo);
                   ("denied", Json.Int p.p_denied);
                 ])
             r.pairs) );
      ( "per_proc",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("proc", Json.Int s.s_proc);
                   ("steps", Json.Int s.s_steps);
                   ("sent", Json.Int s.s_sent);
                   ("received", Json.Int s.s_received);
                   ("recv_delay_total", Json.Int s.s_recv_delay_total);
                 ])
             r.per_proc) );
    ]
