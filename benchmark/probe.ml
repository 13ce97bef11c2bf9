(* Outside-in layer timers: wrappers around an Events.callbacks record that
   time every call into it, and the calibration that prices the timers
   themselves. Nothing here adds a probe to the program; the wrappers sit
   between the executor and the client it drives. *)

module Events = Sfr_runtime.Events

let now = Sfr_obs.Prof.now_ns

(* Accumulator fields. Each domain owns one row of [stride] ints (128
   bytes), so the two Par_exec workers never write the same cache line. *)
let read_ns = 0
let read_calls = 1
let write_ns = 2
let write_calls = 3
let struct_ns = 4
let struct_calls = 5
let stride = 16
let rows = 128

type acc = int array

let create () : acc = Array.make (rows * stride) 0

let[@inline] stop (acc : acc) field t0 =
  let d = now () - t0 in
  let base = ((Domain.self () :> int) land (rows - 1)) * stride in
  Array.unsafe_set acc (base + field) (Array.unsafe_get acc (base + field) + d);
  Array.unsafe_set acc (base + field + 1) (Array.unsafe_get acc (base + field + 1) + 1)

let total (acc : acc) field =
  let s = ref 0 in
  for r = 0 to rows - 1 do
    s := !s + acc.((r * stride) + field)
  done;
  !s

(* Time reads and writes into their own fields and the structural
   callbacks into [struct_*]; [on_work] (a cost-model tick) stays untimed
   and counts toward the executor. A recorder has no layers of its own,
   so [~all:true] times every callback, [on_work] included, into
   [struct_*]. *)
let wrap ?(all = false) acc (cb : Events.callbacks) : Events.callbacks =
  let r_ns = if all then struct_ns else read_ns in
  let w_ns = if all then struct_ns else write_ns in
  {
    Events.on_spawn =
      (fun s ->
        let t0 = now () in
        let r = cb.Events.on_spawn s in
        stop acc struct_ns t0;
        r);
    on_create =
      (fun s ->
        let t0 = now () in
        let r = cb.Events.on_create s in
        stop acc struct_ns t0;
        r);
    on_sync =
      (fun ~cur ~spawned_lasts ~created_firsts ->
        let t0 = now () in
        let r = cb.Events.on_sync ~cur ~spawned_lasts ~created_firsts in
        stop acc struct_ns t0;
        r);
    on_put =
      (fun s ->
        let t0 = now () in
        cb.Events.on_put s;
        stop acc struct_ns t0);
    on_get =
      (fun ~cur ~put ->
        let t0 = now () in
        let r = cb.Events.on_get ~cur ~put in
        stop acc struct_ns t0;
        r);
    on_returned =
      (fun ~cont ~child_last ->
        let t0 = now () in
        cb.Events.on_returned ~cont ~child_last;
        stop acc struct_ns t0);
    on_read =
      (fun s l ->
        let t0 = now () in
        cb.Events.on_read s l;
        stop acc r_ns t0);
    on_write =
      (fun s l ->
        let t0 = now () in
        cb.Events.on_write s l;
        stop acc w_ns t0);
    on_work =
      (if all then fun s n ->
         let t0 = now () in
         cb.Events.on_work s n;
         stop acc struct_ns t0
       else cb.Events.on_work);
  }

(* The Fig. 4 "reach" configuration: structure maintained, accesses
   ignored. *)
let without_accesses (cb : Events.callbacks) =
  { cb with Events.on_read = (fun _ _ -> ()); on_write = (fun _ _ -> ()) }

(* What one timed call costs, in nanoseconds: [inside] is the part that
   lands inside the measured interval (subtract it per call from a layer's
   sum), [full] the whole added cost per call (subtract it per call from
   a traced total). Both are medians of several batches over an empty
   callback, timed exactly as the wrappers time real ones. *)
type calibration = { inside : float; full : float }

let calibrate () =
  let n = 200_000 in
  let plain = Events.null in
  let batch f =
    let t0 = now () in
    for i = 1 to n do
      f i
    done;
    float_of_int (now () - t0) /. float_of_int n
  in
  let one () =
    let acc = create () in
    let timed = wrap acc plain in
    let call (cb : Events.callbacks) i = (Sys.opaque_identity cb).Events.on_read Events.Unit_state i in
    let untimed = batch (call plain) in
    let wrapped = batch (call timed) in
    let inside = float_of_int (total acc read_ns) /. float_of_int (total acc read_calls) in
    (inside, wrapped -. untimed)
  in
  ignore (one ());
  let rs = List.init 7 (fun _ -> one ()) in
  {
    inside = Summary.median (List.map fst rs);
    full = Float.max 0.0 (Summary.median (List.map snd rs));
  }
