module Dag = Sfr_dag.Dag
module Dag_algo = Sfr_dag.Dag_algo
module Trace = Sfr_runtime.Trace

type verdict = {
  racy_locations : int list;
  pairs_checked : int;
  races_found : int;
}

let analyze dag accesses =
  let oracle = Dag_algo.build_oracle dag Dag_algo.Full in
  let by_loc : (int, Trace.access list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (a : Trace.access) ->
      Hashtbl.replace by_loc a.loc
        (a :: Option.value ~default:[] (Hashtbl.find_opt by_loc a.loc)))
    accesses;
  let pairs = ref 0 and races = ref 0 in
  let racy = ref [] in
  Hashtbl.iter
    (fun loc accs ->
      let arr = Array.of_list accs in
      let n = Array.length arr in
      let loc_racy = ref false in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = arr.(i) and b = arr.(j) in
          if a.Trace.is_write || b.Trace.is_write then begin
            incr pairs;
            if
              a.Trace.node <> b.Trace.node
              && Dag_algo.logically_parallel oracle a.Trace.node b.Trace.node
            then begin
              incr races;
              loc_racy := true
            end
          end
        done
      done;
      if !loc_racy then racy := loc :: !racy)
    by_loc;
  {
    racy_locations = List.sort compare !racy;
    pairs_checked = !pairs;
    races_found = !races;
  }

let trace_detector () =
  let trace, callbacks, root = Trace.make ~log_accesses:true () in
  let zero () = 0 in
  ( trace,
    {
      Detector.name = "trace";
      callbacks;
      root;
      races = Race.create ();
      queries = zero;
      reach_words = zero;
      reach_table_words = zero;
      history_words = zero;
      max_readers = zero;
      metrics = Detector.no_metrics;
      supports_parallel = true;
    } )
