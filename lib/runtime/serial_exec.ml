module Metrics = Sfr_obs.Metrics
module Trace_event = Sfr_obs.Trace_event
module Flight = Sfr_obs.Flight
module Chaos = Sfr_chaos.Chaos

let m_spawns = Metrics.counter "runtime.spawns"
let m_creates = Metrics.counter "runtime.creates"
let m_gets = Metrics.counter "runtime.gets"

type frame = {
  mutable spawned_lasts : Events.state list;
  mutable created_firsts : Events.state list;
}

let run (cb : Events.callbacks) ~root main =
  let cur = ref root in
  let do_sync fr =
    if fr.spawned_lasts <> [] || fr.created_firsts <> [] then begin
      cur :=
        cb.on_sync ~cur:!cur ~spawned_lasts:fr.spawned_lasts
          ~created_firsts:fr.created_firsts;
      fr.spawned_lasts <- [];
      fr.created_firsts <- []
    end
  in
  let rec exec_frame : type a. (unit -> a) -> a =
   fun body ->
    let fr = { spawned_lasts = []; created_firsts = [] } in
    let result =
      Effect.Deep.match_with body ()
        {
          retc = Fun.id;
          exnc = raise;
          effc =
            (fun (type b) (eff : b Effect.t) ->
              match eff with
              | Program.Spawn f ->
                  Some
                    (fun (k : (b, _) Effect.Deep.continuation) ->
                      Chaos.point Chaos.Spawn;
                      Metrics.incr m_spawns;
                      let child_state, cont_state = cb.on_spawn !cur in
                      cur := child_state;
                      Trace_event.with_span ~cat:"runtime" "spawn" (fun () ->
                          exec_frame f);
                      let child_last = !cur in
                      cb.on_returned ~cont:cont_state ~child_last;
                      fr.spawned_lasts <- child_last :: fr.spawned_lasts;
                      cur := cont_state;
                      Effect.Deep.continue k ())
              | Program.Sync ->
                  Some
                    (fun (k : (b, _) Effect.Deep.continuation) ->
                      Chaos.point Chaos.Sync;
                      do_sync fr;
                      Effect.Deep.continue k ())
              | Program.Create f ->
                  Some
                    (fun (k : (b, _) Effect.Deep.continuation) ->
                      Chaos.point Chaos.Create;
                      Metrics.incr m_creates;
                      Flight.note "create";
                      let h = Program.Handle.make () in
                      let child_state, cont_state = cb.on_create !cur in
                      fr.created_firsts <- child_state :: fr.created_firsts;
                      cur := child_state;
                      let r =
                        Trace_event.with_span ~cat:"runtime" "create" (fun () ->
                            exec_frame f)
                      in
                      (* the future task's frame-end sync ran inside
                         exec_frame; the resulting strand is its put node *)
                      cb.on_put !cur;
                      Program.Handle.fulfil h r ~last:!cur;
                      cb.on_returned ~cont:cont_state ~child_last:!cur;
                      cur := cont_state;
                      Effect.Deep.continue k h)
              | Program.Get h ->
                  Some
                    (fun (k : (b, _) Effect.Deep.continuation) ->
                      Chaos.point Chaos.Get;
                      Metrics.incr m_gets;
                      Trace_event.instant ~cat:"runtime" "get";
                      Flight.note "get";
                      (match Program.Handle.status h with
                      | Program.Handle.Done -> ()
                      | Program.Handle.Running ->
                          raise
                            (Program.Unstructured_use
                               "get would block in a depth-first serial \
                                execution: the program's futures are not \
                                structured"));
                      Program.Handle.claim_touch h;
                      cur := cb.on_get ~cur:!cur ~put:(Program.Handle.last_exn h);
                      Effect.Deep.continue k (Program.Handle.result_exn h))
              | _ -> None);
        }
    in
    (* frame-end implicit sync *)
    do_sync fr;
    result
  in
  let result = Program.with_sink cb cur (fun () -> exec_frame main) in
  cb.on_put !cur;
  (result, !cur)
