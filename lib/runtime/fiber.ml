type _ Effect.t += Atomic : (unit -> 'a) -> 'a Effect.t

type outcome = Performed | Finished | Already_done

type status =
  | Pending of (unit -> unit)
      (** resuming runs the fiber up to and including its next atomic
          action (executed eagerly at suspension time; see [handler]) *)
  | Done

type t = { mutable status : status; mutable last_performed : bool }

(* The handler executes the atomic action immediately when the effect
   is performed — i.e. during the step in which the process reached it —
   and parks the continuation (carrying the action's result) for the
   next granted step. Hence each call to [step] executes exactly one
   atomic action, except the final one in which the fiber returns. *)
let handler t =
  {
    Effect.Deep.retc = (fun () -> t.status <- Done);
    exnc = raise;
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Atomic action ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                let result = action () in
                t.last_performed <- true;
                t.status <- Pending (fun () -> Effect.Deep.continue k result))
        | _ -> None);
  }

let spawn main =
  let t = { status = Done; last_performed = false } in
  t.status <- Pending (fun () -> Effect.Deep.match_with main () (handler t));
  t

let is_done t = match t.status with Done -> true | Pending _ -> false

let step t =
  match t.status with
  | Done -> Already_done
  | Pending resume ->
      (* [resume] either parks a new Pending (setting last_performed)
         or falls through to retc, which marks Done. *)
      t.status <- Done;
      t.last_performed <- false;
      resume ();
      if is_done t then Finished
      else begin
        assert t.last_performed;
        Performed
      end

let atomic f =
  try Effect.perform (Atomic f)
  with Effect.Unhandled _ ->
    failwith "Fiber.atomic: called outside a fiber (no executor is granting steps)"

(* Same action-at-perform-time discipline as [handler], but the
   continuation is resumed at once instead of parked: every atomic the
   computation reaches runs in place, in the caller's step. *)
let inline_handler =
  {
    Effect.Deep.retc = Fun.id;
    exnc = raise;
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Atomic action ->
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                match action () with
                | result -> Effect.Deep.continue k result
                | exception e ->
                    Effect.Deep.discontinue_with_backtrace k e (Printexc.get_raw_backtrace ()))
        | _ -> None);
  }

let inline f x = Effect.Deep.match_with f x inline_handler
