module Events = Sfr_runtime.Events
module Sp_order = Sfr_reach.Sp_order
module Fp_sets = Sfr_reach.Fp_sets
module Cp_store = Sfr_reach.Cp_store
module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof

(* Query-case breakdown of Algorithm 1 (Lemmas 3.4-3.9): the three
   counters partition every Precedes call, so they sum to [queries ()].
   The matching prof.*.ns timers attribute wall time to the same cases
   (one atomic load per query while profiling is off). *)
let m_q_same = Metrics.counter "reach.query.same_future"
let m_q_cp = Metrics.counter "reach.query.cp"
let m_q_gp = Metrics.counter "reach.query.gp"
let t_q_same = Prof.timer "prof.reach.query.same_future.ns"
let t_q_cp = Prof.timer "prof.reach.query.cp.ns"
let t_q_gp = Prof.timer "prof.reach.query.gp.ns"

(* Per-strand detector state — the paper's "node". The [gp] table is the
   strand's reference-counted future set; the [block] is its frame's
   current sync-block placeholder in the pseudo-SP-dag orders; [depth] is
   its future's depth in the create tree, the index a [cp] chain is
   probed at. *)
type strand = {
  pos : Sp_order.pos;
  block : Sp_order.block option;
  fid : int;
  depth : int;
  gp : Fp_sets.table;
}

type Events.state += Sf of strand

let as_sf = function
  | Sf s -> s
  | _ -> Detect_error.foreign_state ~detector:"Sf_order" ~context:"state unwrap"

let make_with_precedes ?(readers = `All) ?(sets = `Bitmap) ?history () =
  (* [`Lockfree] holds only the keep-all reader policy *)
  let history =
    match (history, readers) with
    | Some h, _ -> h
    | None, `All -> `Lockfree
    | None, `Two_per_future -> `Mutex
  in
  let spo, root_pos = Sp_order.create () in
  let eng =
    Fp_sets.create (match sets with `Bitmap -> Fp_sets.Bitmap | `Hashed -> Fp_sets.Hashed)
  in
  let cp = Cp_store.create () in
  let races = Race.create () in
  (* Query count, striped over 128 atomics picked by domain ID, each
     padded to its own cache line: the parallel executor's workers all
     query one detector, and a single shared counter would serialize
     them on one line. Domains whose IDs agree mod 128 share a stripe
     (IDs grow with every spawn in the process, so they do wrap), and
     [Atomic.incr] keeps the sum exact when they run together. *)
  let padded_atomic () : int Atomic.t =
    (* the atomic primitives touch field 0 only; fields 1..7 are padding *)
    let b = Obj.new_block 0 8 in
    for i = 0 to 7 do
      Obj.set_field b i (Obj.repr 0)
    done;
    Obj.obj b
  in
  let q_slots = Array.init 128 (fun _ -> padded_atomic ()) in
  let count_query () = Atomic.incr q_slots.((Domain.self () :> int) land 127) in
  let query_total () = Array.fold_left (fun n a -> n + Atomic.get a) 0 q_slots in
  (* Algorithm 1: Precedes(u, v) for a previous accessor u against the
     currently executing strand v. *)
  let precedes (u : strand) (v : strand) =
    count_query ();
    let t0 = Prof.start () in
    if u == v then begin
      Metrics.incr m_q_same;
      Prof.stop t_q_same t0;
      true
    end
    else if u.fid = v.fid then begin
      Metrics.incr m_q_same;
      let r = Sp_order.precedes spo u.pos v.pos in
      Prof.stop t_q_same t0;
      r
    end
    else if Cp_store.mem cp v.fid ~fid:u.fid ~depth:u.depth then begin
      Metrics.incr m_q_cp;
      let r = Sp_order.precedes spo u.pos v.pos in
      Prof.stop t_q_cp t0;
      r
    end
    else begin
      Metrics.incr m_q_gp;
      let r = Fp_sets.mem v.gp u.fid in
      Prof.stop t_q_gp t0;
      r
    end
  in
  let policy =
    match readers with
    | `All -> Access_history.Keep_all
    | `Two_per_future ->
        Access_history.Lr_per_future
          {
            future_of = (fun (s : strand) -> s.fid);
            more_left = (fun a b -> Sp_order.eng_precedes spo a.pos b.pos);
            more_right = (fun a b -> Sp_order.heb_precedes spo a.pos b.pos);
            covers = (fun a b -> a == b || Sp_order.precedes spo a.pos b.pos);
          }
  in
  (* the history's one race check, on a stored and the current access;
     its [none] is a strand no access ever carries *)
  let check (prev : strand) (cur : strand) loc kind =
    if not (precedes prev cur) then
      Race.report races ~loc ~kind ~prev_future:prev.fid ~cur_future:cur.fid
  in
  let root = { pos = root_pos; block = None; fid = 0; depth = 0; gp = Fp_sets.empty eng } in
  let history = Access_history.create ~sync:history ~none:{ root with fid = -1 } ~check policy in
  let metrics = Detector.metrics_since_creation () in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let cur = as_sf cur in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          let child = { cur with pos = c_pos; block = None; gp = Fp_sets.share cur.gp } in
          (* the continuation inherits the current strand's gp reference *)
          let cont = { cur with pos = t_pos; block = Some blk } in
          (Sf child, Sf cont));
      on_create =
        (fun cur ->
          let cur = as_sf cur in
          (* cp(G) = cp(parent) ∪ {parent}: one O(min(depth, k/w))
             copy per future, within the O(k²) construction term of
             Lemma 3.12 *)
          let fid = Cp_store.add_child cp ~parent:cur.fid in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          let child =
            { pos = c_pos; block = None; fid; depth = cur.depth + 1; gp = Fp_sets.share cur.gp }
          in
          let cont = { cur with pos = t_pos; block = Some blk } in
          (Sf child, Sf cont));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts:_ ->
          let cur = as_sf cur in
          let pos = Sp_order.sync spo ~cur:cur.pos ~block:cur.block in
          let gp =
            Fp_sets.merge eng cur.gp (List.map (fun s -> (as_sf s).gp) spawned_lasts)
          in
          Sf { cur with pos; block = None; gp });
      on_put = (fun _ -> ());
      on_get =
        (fun ~cur ~put ->
          let cur = as_sf cur and put = as_sf put in
          let pos = Sp_order.step spo ~cur:cur.pos in
          (* gp(g) = gp(cur) ∪ gp(last(G)) ∪ {G} (Section 3.4) *)
          let gp =
            Fp_sets.with_added eng (Fp_sets.merge eng cur.gp [ put.gp ]) put.fid
          in
          Sf { cur with pos; gp });
      on_returned = (fun ~cont:_ ~child_last:_ -> ());
      on_read =
        (fun state loc -> Access_history.on_read history ~loc ~accessor:(as_sf state));
      on_write =
        (fun state loc -> Access_history.on_write history ~loc ~accessor:(as_sf state));
      on_work = (fun _ _ -> ());
    }
  in
  ( {
    Detector.name = "sf-order";
    callbacks;
    root = Sf root;
    races;
    queries = query_total;
    reach_words =
      (fun () -> Sp_order.words spo + Fp_sets.live_words eng + Cp_store.words cp);
    reach_table_words = (fun () -> Fp_sets.total_words eng + Cp_store.words cp);
    history_words = (fun () -> Access_history.words history);
    max_readers = (fun () -> Access_history.max_readers_at_once history);
    metrics;
    supports_parallel = true;
  },
    fun u v -> precedes (as_sf u) (as_sf v) )

let make ?readers ?sets ?history () = fst (make_with_precedes ?readers ?sets ?history ())
