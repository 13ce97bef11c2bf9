module Events = Sfr_runtime.Events
module Sp_bags = Sfr_reach.Sp_bags
module Fp_sets = Sfr_reach.Fp_sets
module Cp_store = Sfr_reach.Cp_store
module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof

(* Same three-way split as SF-Order's Algorithm 1, with bags standing in
   for the order-maintenance comparison in the first two cases. *)
let m_q_same = Metrics.counter "reach.query.same_future"
let m_q_cp = Metrics.counter "reach.query.cp"
let m_q_gp = Metrics.counter "reach.query.gp"
let t_q_same = Prof.timer "prof.reach.query.same_future.ns"
let t_q_cp = Prof.timer "prof.reach.query.cp.ns"
let t_q_gp = Prof.timer "prof.reach.query.gp.ns"

type strand = {
  frame : Sp_bags.frame;
  fid : int;
  depth : int;
  gp : Fp_sets.table;
}

type Events.state += Mb of strand

let as_mb = function
  | Mb s -> s
  | _ -> Detect_error.foreign_state ~detector:"Multibags" ~context:"state unwrap"

let make () =
  let bags, root_frame = Sp_bags.create () in
  let eng = Fp_sets.create Fp_sets.Bitmap in
  let cp = Cp_store.create () in
  let races = Race.create () in
  let queries = ref 0 in
  let precedes (u : strand) (v : strand) =
    incr queries;
    let t0 = Prof.start () in
    if u == v then begin
      Metrics.incr m_q_same;
      Prof.stop t_q_same t0;
      true
    end
    else if u.fid = v.fid then begin
      Metrics.incr m_q_same;
      (* Cases 1-2: pseudo-SP-dag reachability relative to the current
         (depth-first) execution point, via the bags *)
      let r = Sp_bags.is_serial_with_current bags u.frame in
      Prof.stop t_q_same t0;
      r
    end
    else if Cp_store.mem cp v.fid ~fid:u.fid ~depth:u.depth then begin
      Metrics.incr m_q_cp;
      let r = Sp_bags.is_serial_with_current bags u.frame in
      Prof.stop t_q_cp t0;
      r
    end
    else begin
      Metrics.incr m_q_gp;
      let r = Fp_sets.mem v.gp u.fid (* Case 3 *) in
      Prof.stop t_q_gp t0;
      r
    end
  in
  (* the history's one race check, on a stored and the current access;
     its [none] is a strand no access ever carries *)
  let check (prev : strand) (cur : strand) loc kind =
    if not (precedes prev cur) then
      Race.report races ~loc ~kind ~prev_future:prev.fid ~cur_future:cur.fid
  in
  let root = { frame = root_frame; fid = 0; depth = 0; gp = Fp_sets.empty eng } in
  let history =
    Access_history.create ~sync:`Unsynchronized ~none:{ root with fid = -1 } ~check
      Access_history.Keep_all
  in
  let metrics = Detector.metrics_since_creation () in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let cur = as_mb cur in
          let child_frame = Sp_bags.spawn_child bags in
          let child = { cur with frame = child_frame; gp = Fp_sets.share cur.gp } in
          (* a fresh record: the continuation is a new strand *)
          let cont = { cur with gp = cur.gp } in
          (Mb child, Mb cont));
      on_create =
        (fun cur ->
          let cur = as_mb cur in
          let fid = Cp_store.add_child cp ~parent:cur.fid in
          let child_frame = Sp_bags.spawn_child bags in
          let child =
            { frame = child_frame; fid; depth = cur.depth + 1; gp = Fp_sets.share cur.gp }
          in
          (Mb child, Mb { cur with gp = cur.gp }));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts:_ ->
          let cur = as_mb cur in
          Sp_bags.sync bags cur.frame;
          let gp =
            Fp_sets.merge eng cur.gp (List.map (fun s -> (as_mb s).gp) spawned_lasts)
          in
          Mb { cur with gp });
      on_put = (fun _ -> ());
      on_get =
        (fun ~cur ~put ->
          let cur = as_mb cur and put = as_mb put in
          let gp =
            Fp_sets.with_added eng (Fp_sets.merge eng cur.gp [ put.gp ]) put.fid
          in
          Mb { cur with gp });
      on_returned =
        (fun ~cont ~child_last ->
          let cont = as_mb cont and child_last = as_mb child_last in
          Sp_bags.child_returned bags ~parent:cont.frame ~child:child_last.frame);
      on_read =
        (fun state loc -> Access_history.on_read history ~loc ~accessor:(as_mb state));
      on_write =
        (fun state loc -> Access_history.on_write history ~loc ~accessor:(as_mb state));
      on_work = (fun _ _ -> ());
    }
  in
  {
    Detector.name = "multibags";
    callbacks;
    root = Mb root;
    races;
    queries = (fun () -> !queries);
    reach_words =
      (fun () -> Sp_bags.words bags + Fp_sets.live_words eng + Cp_store.words cp);
    reach_table_words = (fun () -> Fp_sets.total_words eng + Cp_store.words cp);
    history_words = (fun () -> Access_history.words history);
    max_readers = (fun () -> Access_history.max_readers_at_once history);
    metrics;
    supports_parallel = false;
  }
