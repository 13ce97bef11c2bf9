module Prng = Sfr_support.Prng
module Metrics = Sfr_obs.Metrics

(* Observability: every chaos decision is counted so soak runs can verify
   that injection actually happened (a chaos run with chaos.points = 0
   tested nothing). *)
let m_points = Metrics.counter "chaos.points"
let m_yields = Metrics.counter "chaos.yields"
let m_delays = Metrics.counter "chaos.delays"
let m_injected = Metrics.counter "chaos.injected"
let m_force_steals = Metrics.counter "chaos.force_steals"
let m_wire_truncate = Metrics.counter "chaos.wire.truncate"
let m_wire_duplicate = Metrics.counter "chaos.wire.duplicate"
let m_wire_corrupt = Metrics.counter "chaos.wire.corrupt"
let m_wire_disconnect = Metrics.counter "chaos.wire.disconnect"

type site =
  | Spawn
  | Create
  | Get
  | Sync
  | Steal
  | Lock_acquire
  | Relabel
  | Task
  | Record
  | Log_flush
  | Wire

let all_sites =
  [
    Spawn; Create; Get; Sync; Steal; Lock_acquire; Relabel; Task; Record;
    Log_flush; Wire;
  ]

let nsites = List.length all_sites

let site_index = function
  | Spawn -> 0
  | Create -> 1
  | Get -> 2
  | Sync -> 3
  | Steal -> 4
  | Lock_acquire -> 5
  | Relabel -> 6
  | Task -> 7
  | Record -> 8
  | Log_flush -> 9
  | Wire -> 10

let site_name = function
  | Spawn -> "spawn"
  | Create -> "create"
  | Get -> "get"
  | Sync -> "sync"
  | Steal -> "steal"
  | Lock_acquire -> "lock_acquire"
  | Relabel -> "relabel"
  | Task -> "task"
  | Record -> "record"
  | Log_flush -> "log_flush"
  | Wire -> "wire"

type action = Pass | Yield | Delay of int | Fault | Force_steal

let action_name = function
  | Pass -> "pass"
  | Yield -> "yield"
  | Delay _ -> "delay"
  | Fault -> "fault"
  | Force_steal -> "force_steal"

exception Injected of { site : site; seq : int }

let () =
  Printexc.register_printer (function
    | Injected { site; seq } ->
        Some (Printf.sprintf "Sfr_chaos.Chaos.Injected(%s #%d)" (site_name site) seq)
    | _ -> None)

type config = {
  yield_rate : float;
  delay_rate : float;
  fault_rate : float;
  steal_rate : float;
  wire_rate : float;
  max_delay_spins : int;
  fault_sites : site list;
  max_faults : int;
}

let default_config =
  {
    yield_rate = 0.10;
    delay_rate = 0.05;
    fault_rate = 0.0;
    steal_rate = 0.25;
    wire_rate = 0.0;
    max_delay_spins = 4096;
    fault_sites = [ Task; Spawn; Create; Get; Sync ];
    max_faults = 1;
  }

let fault_config =
  { default_config with fault_rate = 0.02; max_faults = 1 }

type wire_fault =
  | Wire_pass
  | Wire_truncate of int
  | Wire_duplicate
  | Wire_corrupt of int
  | Wire_disconnect

let wire_fault_name = function
  | Wire_pass -> "pass"
  | Wire_truncate _ -> "truncate"
  | Wire_duplicate -> "duplicate"
  | Wire_corrupt _ -> "corrupt"
  | Wire_disconnect -> "disconnect"

type state = {
  seed : int;
  config : config;
  seqs : int Atomic.t array; (* per-site arrival counters *)
  steal_seq : int Atomic.t; (* force_steal has its own stream *)
  wire_seq : int Atomic.t; (* wire faults have their own stream *)
  fault_budget : int Atomic.t; (* remaining faults allowed *)
  raised : int Atomic.t; (* faults actually raised *)
  mu : Mutex.t;
  mutable events : (site * int * action) list;
}

(* The hot-path gate: [point]/[force_steal] are a single atomic load (and
   a branch) while this is false, mirroring Sfr_obs.Metrics.disable. *)
let on = Atomic.make false
let armed_state : state option Atomic.t = Atomic.make None

let arm ?(config = default_config) ~seed () =
  let st =
    {
      seed;
      config;
      seqs = Array.init nsites (fun _ -> Atomic.make 0);
      steal_seq = Atomic.make 0;
      wire_seq = Atomic.make 0;
      fault_budget = Atomic.make config.max_faults;
      raised = Atomic.make 0;
      mu = Mutex.create ();
      events = [];
    }
  in
  Atomic.set armed_state (Some st);
  Atomic.set on true

(* Only the hot flag is dropped: the state stays readable so callers can
   inspect [trace]/[injected_count] after the run; the next [arm] replaces
   it. (An in-flight [slow_point] that already passed the flag check may
   still perturb once — harmless.) *)
let disarm () = Atomic.set on false

let armed () = Atomic.get on

let record st site seq action =
  Mutex.lock st.mu;
  st.events <- (site, seq, action) :: st.events;
  Mutex.unlock st.mu

(* The decision is a pure function of (seed, site, seq): the k-th arrival
   at a site always draws the same verdict for a given seed, whichever
   domain gets there — the whole replay story rests on this. *)
let decide cfg seed site seq =
  let rng =
    Prng.create
      (seed
      lxor ((site_index site + 1) * 0x9E3779B1)
      lxor ((seq + 1) * 0x85EB_CA6B))
  in
  let r = Prng.float rng 1.0 in
  let fault_ok = List.memq site cfg.fault_sites in
  let f = if fault_ok then cfg.fault_rate else 0.0 in
  if r < f then Fault
  else if r < f +. cfg.yield_rate then Yield
  else if r < f +. cfg.yield_rate +. cfg.delay_rate then
    Delay (1 + Prng.int rng (max 1 cfg.max_delay_spins))
  else Pass

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let slow_point site =
  match Atomic.get armed_state with
  | None -> ()
  | Some st -> (
      Metrics.incr m_points;
      let seq = Atomic.fetch_and_add st.seqs.(site_index site) 1 in
      match decide st.config st.seed site seq with
      | Pass -> ()
      | Yield ->
          record st site seq Yield;
          Metrics.incr m_yields;
          Domain.cpu_relax ()
      | Delay n ->
          record st site seq (Delay n);
          Metrics.incr m_delays;
          spin n
      | Force_steal -> () (* not produced by [decide] for points *)
      | Fault ->
          (* fetch-and-decrement of the shared budget keeps the cap exact
             under concurrent arrivals: only winners raise *)
          if Atomic.fetch_and_add st.fault_budget (-1) > 0 then begin
            record st site seq Fault;
            Metrics.incr m_injected;
            Atomic.incr st.raised;
            raise (Injected { site; seq })
          end)

let[@inline] point site = if Atomic.get on then slow_point site

let slow_force_steal () =
  match Atomic.get armed_state with
  | None -> false
  | Some st ->
      let seq = Atomic.fetch_and_add st.steal_seq 1 in
      let rng = Prng.create (st.seed lxor 0x5DEECE66 lxor ((seq + 1) * 0xC2B2_AE35)) in
      if Prng.float rng 1.0 < st.config.steal_rate then begin
        record st Steal seq Force_steal;
        Metrics.incr m_force_steals;
        true
      end
      else false

let[@inline] force_steal () = Atomic.get on && slow_force_steal ()

(* Wire faults perturb the *transport*, not the computation: the k-th
   frame crossing an armed loopback draws the same verdict on every run
   (its own stream, like force_steal). [frame_len] parameterizes the
   truncation point / corrupted byte so the fault always lands inside
   the frame image. *)
let slow_wire_fault ~frame_len =
  match Atomic.get armed_state with
  | None -> Wire_pass
  | Some st ->
      let seq = Atomic.fetch_and_add st.wire_seq 1 in
      let rng =
        Prng.create (st.seed lxor 0x27D4_EB2F lxor ((seq + 1) * 0x165667B1))
      in
      if Prng.float rng 1.0 >= st.config.wire_rate then Wire_pass
      else begin
        let fault =
          match Prng.int rng 4 with
          | 0 -> Wire_truncate (Prng.int rng (max 1 frame_len))
          | 1 -> Wire_duplicate
          | 2 -> Wire_corrupt (Prng.int rng (max 1 frame_len))
          | _ -> Wire_disconnect
        in
        record st Wire seq Fault;
        (match fault with
        | Wire_truncate _ -> Metrics.incr m_wire_truncate
        | Wire_duplicate -> Metrics.incr m_wire_duplicate
        | Wire_corrupt _ -> Metrics.incr m_wire_corrupt
        | Wire_disconnect -> Metrics.incr m_wire_disconnect
        | Wire_pass -> ());
        fault
      end

let[@inline] wire_fault ~frame_len =
  if Atomic.get on then slow_wire_fault ~frame_len else Wire_pass

let trace () =
  match Atomic.get armed_state with
  | None -> []
  | Some st ->
      Mutex.lock st.mu;
      let evs = st.events in
      Mutex.unlock st.mu;
      List.sort
        (fun (s1, q1, _) (s2, q2, _) ->
          match Int.compare (site_index s1) (site_index s2) with
          | 0 -> Int.compare q1 q2
          | c -> c)
        evs

let trace_strings () =
  List.map
    (fun (site, seq, action) ->
      Printf.sprintf "%s#%d:%s" (site_name site) seq (action_name action))
    (trace ())

let injected_count () =
  match Atomic.get armed_state with
  | None -> 0
  | Some st -> Atomic.get st.raised

let with_armed ?config ~seed f =
  arm ?config ~seed ();
  Fun.protect ~finally:disarm f
