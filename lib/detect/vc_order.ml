module Events = Sfr_runtime.Events
module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof

(* Query-case split: [vc.query.same_task] covers identity and same-slot
   program-order answers; [vc.query.clock] is a real clock comparison.
   The two partition every Precedes call, summing to [queries ()]. *)
let m_q_same = Metrics.counter "vc.query.same_task"
let m_q_clock = Metrics.counter "vc.query.clock"
let t_q = Prof.timer "prof.vc.query.ns"

(* Clock-array churn: words allocated into vector-clock snapshots
   (cumulative, the Figure-5-style measurement), and how task slots were
   obtained — a reused slot keeps the clock width at the live-task count
   instead of the total spawn count. *)
let m_alloc_words = Metrics.counter "vc.clock.alloc_words"
let m_slots_fresh = Metrics.counter "vc.slots.fresh"
let m_slots_reused = Metrics.counter "vc.slots.reused"

(* Per-strand detector state. [vc] is an immutable-once-published
   snapshot: every state-producing event (spawn, create, sync, get)
   builds a fresh array and bumps the owner's own component, so distinct
   strands of one task are distinguishable and Precedes answers exact
   dag reachability, not a coarsening.

   [pool] holds task slots freed by syncs in this strand's frame chain:
   (slot, last_tick) pairs. A freed slot travels only through strand
   states, so any reuse point happens-after the freeing sync by control
   flow, and the new incarnation starts ticking at last_tick + 1. Both
   facts together make reuse sound: if v's clock covers slot [s] at a
   tick of a later incarnation, then v happens-after that incarnation's
   creation, which happens-after the sync that freed [s], which
   happens-after every access of the old incarnation — so the positive
   Precedes answer is genuine, never a conflation of two tasks. Future
   slots are never freed (a get may happen arbitrarily late), so the
   clock width is O(live tasks + futures). *)
type strand = {
  tid : int;  (** this task's clock slot *)
  tick : int;  (** cached [vc.(tid)] *)
  vc : int array;
  fid : int;  (** owning future dag, for race attribution *)
  pool : (int * int) list;
}

type Events.state += Vc of strand

let as_vc = function
  | Vc s -> s
  | _ -> Detect_error.foreign_state ~detector:"Vc_order" ~context:"state unwrap"

let make ?(history = `Lockfree) () =
  let next_slot = Atomic.make 1 in
  let next_fid = Atomic.make 1 in
  let alloc_words = Atomic.make 1 (* the root clock below *) in
  let races = Race.create () in
  (* striped per-domain query counter, as in Sf_order: a shared
     [Atomic.incr] would serialize every domain on one cache line *)
  let q_stride = 8 in
  let q_slots = Array.make (128 * q_stride) 0 in
  let count_query () =
    let s = ((Domain.self () :> int) land 127) * q_stride in
    q_slots.(s) <- q_slots.(s) + 1
  in
  let query_total () = Array.fold_left ( + ) 0 q_slots in
  let alloc n =
    ignore (Atomic.fetch_and_add alloc_words n);
    Metrics.add m_alloc_words n;
    Array.make n 0
  in
  (* copy [vc] into a fresh array of at least [n] components *)
  let copy_grow vc n =
    let a = alloc (max (Array.length vc) n) in
    Array.blit vc 0 a 0 (Array.length vc);
    a
  in
  (* pointwise max into a fresh array; missing components are 0 *)
  let join a b =
    let la = Array.length a and lb = Array.length b in
    let r = alloc (max la lb) in
    for i = 0 to Array.length r - 1 do
      let x = if i < la then a.(i) else 0 in
      let y = if i < lb then b.(i) else 0 in
      r.(i) <- if x >= y then x else y
    done;
    r
  in
  (* pop a freed slot (resuming past its last incarnation's ticks) or
     claim a fresh one; returns (slot, first_tick, remaining_pool) *)
  let alloc_slot pool =
    match pool with
    | (s, last) :: rest ->
        Metrics.incr m_slots_reused;
        (s, last + 1, rest)
    | [] ->
        Metrics.incr m_slots_fresh;
        (Atomic.fetch_and_add next_slot 1, 1, [])
  in
  (* Precedes(u, v): does stored accessor u happen-before the currently
     executing strand v? Exact: v's snapshot covers u's self-tick iff
     there is a dag path from u's node to v's. *)
  let precedes (u : strand) (v : strand) =
    count_query ();
    let t0 = Prof.start () in
    let r =
      if u == v then begin
        Metrics.incr m_q_same;
        true
      end
      else if u.tid = v.tid then begin
        Metrics.incr m_q_same;
        u.tick <= v.tick
      end
      else begin
        Metrics.incr m_q_clock;
        u.tid < Array.length v.vc && v.vc.(u.tid) >= u.tick
      end
    in
    Prof.stop t_q t0;
    r
  in
  (* the history's one race check, on a stored and the current access;
     its [none] is a strand no access ever carries *)
  let check (prev : strand) (cur : strand) loc kind =
    if not (precedes prev cur) then
      Race.report races ~loc ~kind ~prev_future:prev.fid ~cur_future:cur.fid
  in
  let root = { tid = 0; tick = 1; vc = [| 1 |]; fid = 0; pool = [] } in
  let history =
    Access_history.create ~sync:history ~none:{ root with fid = -1 } ~check Access_history.Keep_all
  in
  let metrics = Detector.metrics_since_creation () in
  (* begin a child task: its snapshot is the parent's plus its own slot
     at its first tick; the parent's continuation self-ticks so accesses
     after the fork are not covered by the child *)
  let fork (cur : strand) ~fid =
    let s, t0, rest = alloc_slot cur.pool in
    let cvc = copy_grow cur.vc (s + 1) in
    cvc.(s) <- t0;
    let child = { tid = s; tick = t0; vc = cvc; fid; pool = [] } in
    let tvc = copy_grow cur.vc 0 in
    tvc.(cur.tid) <- cur.tick + 1;
    let cont = { cur with tick = cur.tick + 1; vc = tvc; pool = rest } in
    (child, cont)
  in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let cur = as_vc cur in
          let child, cont = fork cur ~fid:cur.fid in
          (Vc child, Vc cont));
      on_create =
        (fun cur ->
          let cur = as_vc cur in
          (* fresh future id in callback order — under a serial execution
             this matches Sf_order's cp-push numbering, so attributed
             race reports diff byte-identically against it *)
          let fid = Atomic.fetch_and_add next_fid 1 in
          let child, cont = fork cur ~fid in
          (Vc child, Vc cont));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts:_ ->
          (* async-finish mapping: a sync is the finish join of the
             frame's spawned children. [created_firsts] fake-join in the
             pseudo-SP-dag only — they carry no happens-before edge, so
             the clocks must NOT absorb them (a get does that later). *)
          let cur = as_vc cur in
          let lasts = List.map as_vc spawned_lasts in
          let n =
            List.fold_left
              (fun acc (c : strand) -> max acc (Array.length c.vc))
              (Array.length cur.vc) lasts
          in
          let vc = copy_grow cur.vc n in
          List.iter
            (fun (c : strand) ->
              for i = 0 to Array.length c.vc - 1 do
                if c.vc.(i) > vc.(i) then vc.(i) <- c.vc.(i)
              done)
            lasts;
          vc.(cur.tid) <- cur.tick + 1;
          (* joined children's slots (and the slots they freed) are dead
             from here on: recycle them into this strand's pool *)
          let pool =
            List.fold_left
              (fun acc (c : strand) -> (c.tid, c.tick) :: (c.pool @ acc))
              cur.pool lasts
          in
          Vc { tid = cur.tid; tick = cur.tick + 1; vc; fid = cur.fid; pool });
      on_put = (fun _ -> ());
      on_get =
        (fun ~cur ~put ->
          let cur = as_vc cur and put = as_vc put in
          let vc = join cur.vc put.vc in
          vc.(cur.tid) <- cur.tick + 1;
          Vc { cur with tick = cur.tick + 1; vc });
      on_returned = (fun ~cont:_ ~child_last:_ -> ());
      on_read =
        (fun state loc -> Access_history.on_read history ~loc ~accessor:(as_vc state));
      on_write =
        (fun state loc -> Access_history.on_write history ~loc ~accessor:(as_vc state));
      on_work = (fun _ _ -> ());
    }
  in
  {
    Detector.name = "vc-order";
    callbacks;
    root = Vc root;
    races;
    queries = query_total;
    (* one word per allocated slot: the clock width every live strand's
       snapshot is bounded by (strand liveness itself is the GC's) *)
    reach_words = (fun () -> Atomic.get next_slot);
    reach_table_words = (fun () -> Atomic.get alloc_words);
    history_words = (fun () -> Access_history.words history);
    max_readers = (fun () -> Access_history.max_readers_at_once history);
    metrics;
    supports_parallel = true;
  }

let strand_task st = (as_vc st).tid
