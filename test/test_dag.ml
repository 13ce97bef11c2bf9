(* Tests for the dag model: builder semantics, SF validation, ground-truth
   reachability, and the paper's structural lemmas (3.4, 3.7, 3.9) as
   executable properties over randomly generated structured programs. *)

module Dag = Sfr_dag.Dag
module Dag_algo = Sfr_dag.Dag_algo
module Dag_check = Sfr_dag.Dag_check
module Dot = Sfr_dag.Dot
module Prng = Sfr_support.Prng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Hand-built dags                                                     *)
(* ------------------------------------------------------------------ *)

(* Plain fork-join:  root spawns a child, syncs, continues. *)
let build_forkjoin () =
  let t, root = Dag.create () in
  let child, cont = Dag.spawn t ~cur:root in
  let s = Dag.sync t ~cur:cont ~spawned_lasts:[ child ] ~created:[] in
  Dag.put t ~cur:s;
  (t, root, child, cont, s)

let test_forkjoin_shape () =
  let t, root, child, cont, s = build_forkjoin () in
  check int "nodes" 4 (Dag.n_nodes t);
  check int "futures" 1 (Dag.n_futures t);
  check bool "root->child" true (Dag_algo.reaches t Dag_algo.Full root child);
  check bool "root->cont" true (Dag_algo.reaches t Dag_algo.Full root cont);
  check bool "child/cont parallel" false (Dag_algo.reaches t Dag_algo.Full child cont);
  check bool "cont not before child" false (Dag_algo.reaches t Dag_algo.Full cont child);
  check bool "child->sync" true (Dag_algo.reaches t Dag_algo.Full child s);
  check bool "cont->sync" true (Dag_algo.reaches t Dag_algo.Full cont s);
  check bool "is SP dag" true (Dag_check.is_sp_dag t);
  Alcotest.(check (list (pair string string)))
    "valid" []
    (List.map (fun v -> (v.Dag_check.code, "")) (Dag_check.validate_sf t))

(* One structured future: root creates F, continues, gets F. *)
let build_one_future () =
  let t, root = Dag.create () in
  let child, cont, fid = Dag.create_future t ~cur:root in
  (* the future task does some work then puts *)
  Dag.put t ~cur:child;
  let g = Dag.get t ~cur:cont ~future:fid in
  (* root frame-end: implicit sync joining nothing real, fake-join for F *)
  let s = Dag.sync t ~cur:g ~spawned_lasts:[] ~created:[ fid ] in
  Dag.put t ~cur:s;
  (t, root, child, cont, fid, g, s)

let test_one_future () =
  let t, root, child, cont, fid, g, _s = build_one_future () in
  check int "futures" 2 (Dag.n_futures t);
  check bool "root->future" true (Dag_algo.reaches t Dag_algo.Full root child);
  check bool "future/cont parallel" true
    (let o = Dag_algo.build_oracle t Dag_algo.Full in
     Dag_algo.logically_parallel o child cont);
  check bool "future->get (get edge)" true (Dag_algo.reaches t Dag_algo.Full child g);
  check (Alcotest.option int) "last of future" (Some child) (Dag.last_of t fid);
  check (Alcotest.list int) "ancestors" [ 0 ] (Dag.f_ancestors t fid);
  check bool "valid SF" true (Dag_check.validate_sf t = [])

let test_single_touch_enforced () =
  let t, root = Dag.create () in
  let child, cont, fid = Dag.create_future t ~cur:root in
  Dag.put t ~cur:child;
  let g = Dag.get t ~cur:cont ~future:fid in
  Alcotest.check_raises "second get raises"
    (Invalid_argument "Dag.get: handle touched twice (single-touch violation)")
    (fun () -> ignore (Dag.get t ~cur:g ~future:fid))

let test_get_before_put_enforced () =
  let t, root = Dag.create () in
  let _child, cont, fid = Dag.create_future t ~cur:root in
  Alcotest.check_raises "get before put raises"
    (Invalid_argument "Dag.get: future has not completed (no put node)")
    (fun () -> ignore (Dag.get t ~cur:cont ~future:fid))

let test_double_put_enforced () =
  let t, root = Dag.create () in
  Dag.put t ~cur:root;
  Alcotest.check_raises "double put raises"
    (Invalid_argument "Dag.put: future already has a put node")
    (fun () -> Dag.put t ~cur:root)

(* PSP view: get edges disappear, fake joins appear. *)
let test_psp_view () =
  let t, _root, child, cont, fid, g, s = build_one_future () in
  (* In D, child (=last of future) reaches g via the get edge. *)
  check bool "full: future->get" true (Dag_algo.reaches t Dag_algo.Full child g);
  (* In PSP the get edge is gone; child reaches only the fake-join sync. *)
  check bool "psp: future !-> get" false (Dag_algo.reaches t Dag_algo.Psp child g);
  check bool "psp: future -> fake sync" true (Dag_algo.reaches t Dag_algo.Psp child s);
  check bool "psp: cont -> sync" true (Dag_algo.reaches t Dag_algo.Psp cont s);
  ignore fid

let test_validation_catches_missing_put () =
  let t, root = Dag.create () in
  let _child, _cont, _fid = Dag.create_future t ~cur:root in
  let violations = Dag_check.validate_sf t in
  check bool "missing put detected" true
    (List.exists (fun v -> v.Dag_check.code = "no-put") violations)

let test_dot_output () =
  let t, _, _, _, _, _, _ = build_one_future () in
  let dot_full = Dot.of_dag t Dag_algo.Full in
  let dot_psp = Dot.of_dag t Dag_algo.Psp in
  let has s sub =
    let n = String.length sub and h = String.length s in
    let rec scan i = i + n <= h && (String.sub s i n = sub || scan (i + 1)) in
    scan 0
  in
  check bool "full has blue get edge" true (has dot_full "color=blue");
  check bool "psp has no blue get edge" false (has dot_psp "color=blue");
  check bool "psp has dashed fake edge" true (has dot_psp "style=dashed");
  check bool "clusters per future" true (has dot_full "cluster_f1")

(* ------------------------------------------------------------------ *)
(* Random structured programs (serial simulation over the builder)     *)
(* ------------------------------------------------------------------ *)

(* Serial depth-first simulation of a random structured-futures program.
   Handles are gettable only in the frame that created them (the full
   escaping-handle generator lives in the workloads library) — creation
   precedes get in the same frame, so the structured-use restriction holds
   by construction. *)
let random_sf_dag rng ~max_ops ~max_depth =
  let t, root = Dag.create () in
  let budget = ref max_ops in
  (* returns the frame's final node *)
  let rec run_frame cur depth =
    let cur = ref cur in
    let spawned = ref [] in
    let created = ref [] in
    let handles = ref [] in
    let steps = Prng.int rng 6 in
    for _ = 0 to steps do
      if !budget > 0 then begin
        decr budget;
        Dag.add_cost t !cur (1 + Prng.int rng 5);
        match Prng.int rng 5 with
        | 0 when depth < max_depth ->
            let child, cont = Dag.spawn t ~cur:!cur in
            let child_last = run_frame child (depth + 1) in
            spawned := child_last :: !spawned;
            cur := cont
        | 1 when depth < max_depth ->
            let child, cont, fid = Dag.create_future t ~cur:!cur in
            let child_last = run_future_frame child (depth + 1) in
            Dag.put t ~cur:child_last;
            created := fid :: !created;
            handles := fid :: !handles;
            cur := cont
        | 2 when !spawned <> [] || !created <> [] ->
            cur := Dag.sync t ~cur:!cur ~spawned_lasts:!spawned ~created:!created;
            spawned := [];
            created := []
        | 3 when !handles <> [] ->
            let i = Prng.int rng (List.length !handles) in
            let h = List.nth !handles i in
            handles := List.filteri (fun j _ -> j <> i) !handles;
            cur := Dag.get t ~cur:!cur ~future:h
        | _ -> Dag.add_cost t !cur 1
      end
    done;
    if !spawned <> [] || !created <> [] then
      cur := Dag.sync t ~cur:!cur ~spawned_lasts:!spawned ~created:!created;
    !cur
  (* a future task's frame: same, but does not put (caller puts) *)
  and run_future_frame first depth = run_frame first depth in
  let final = run_frame root 0 in
  Dag.put t ~cur:final;
  t

let gen_dag =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Prng.create seed in
      random_sf_dag rng ~max_ops:(30 + Prng.int rng 120) ~max_depth:5)
    QCheck2.Gen.(int_bound 1_000_000)

let prop_random_valid =
  QCheck2.Test.make ~name:"random structured dags validate as SF" ~count:200 gen_dag
    (fun t -> Dag_check.validate_sf t = [])

let prop_oracle_matches_bfs =
  QCheck2.Test.make ~name:"reach oracle agrees with BFS (both views)" ~count:60
    gen_dag (fun t ->
      let n = Dag.n_nodes t in
      let of_full = Dag_algo.build_oracle t Dag_algo.Full in
      let of_psp = Dag_algo.build_oracle t Dag_algo.Psp in
      let rng = Prng.create (n * 7919) in
      let ok = ref true in
      for _ = 1 to 200 do
        let u = Prng.int rng n and v = Prng.int rng n in
        if Dag_algo.oracle_reaches of_full u v <> Dag_algo.reaches t Dag_algo.Full u v
        then ok := false;
        if Dag_algo.oracle_reaches of_psp u v <> Dag_algo.reaches t Dag_algo.Psp u v
        then ok := false
      done;
      !ok)

(* Paper Lemma 3.7: for u, v in the same future dag, u ↠ v iff u ≺ v. *)
let prop_lemma_3_7 =
  QCheck2.Test.make ~name:"lemma 3.7: same-future PSP = full reachability"
    ~count:60 gen_dag (fun t ->
      let full = Dag_algo.build_oracle t Dag_algo.Full in
      let psp = Dag_algo.build_oracle t Dag_algo.Psp in
      let n = Dag.n_nodes t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Dag.future_of t u = Dag.future_of t v then
            if Dag_algo.precedes full u v <> Dag_algo.precedes psp u v then
              ok := false
        done
      done;
      !ok)

(* Paper Lemmas 3.8 + 3.9: for u ∈ F, v ∈ G with F a strict future
   ancestor of G, u ↠ v iff u ≺ v (PSP is exact across ancestor pairs). *)
let prop_lemma_3_9 =
  QCheck2.Test.make ~name:"lemma 3.9: PSP exact for future-ancestor pairs"
    ~count:60 gen_dag (fun t ->
      let full = Dag_algo.build_oracle t Dag_algo.Full in
      let psp = Dag_algo.build_oracle t Dag_algo.Psp in
      let n = Dag.n_nodes t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let fu = Dag.future_of t u and fv = Dag.future_of t v in
          if fu <> fv && List.mem fu (Dag.f_ancestors t fv) then
            if Dag_algo.precedes full u v <> Dag_algo.precedes psp u v then
              ok := false
        done
      done;
      !ok)

(* Paper Lemma 3.4 (plus Property 1): for u ∈ F, v ∈ G, F not an ancestor
   of G (and F ≠ G): u ≺ v iff last(F) ⪯ v. *)
let prop_lemma_3_4 =
  QCheck2.Test.make ~name:"lemma 3.4: non-ancestor reachability via last(F)"
    ~count:60 gen_dag (fun t ->
      let full = Dag_algo.build_oracle t Dag_algo.Full in
      let n = Dag.n_nodes t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let fu = Dag.future_of t u and fv = Dag.future_of t v in
          if fu <> fv && not (List.mem fu (Dag.f_ancestors t fv)) then begin
            let expected =
              match Dag.last_of t fu with
              | None -> false
              | Some last -> Dag_algo.oracle_reaches full last v
            in
            if Dag_algo.precedes full u v <> expected then ok := false
          end
        done
      done;
      !ok)

let prop_span_le_work =
  QCheck2.Test.make ~name:"span <= work in both views" ~count:100 gen_dag (fun t ->
      let w = Dag_algo.work t in
      Dag_algo.span t Dag_algo.Full <= w && Dag_algo.span t Dag_algo.Psp <= w)

(* In the full dag, PSP reachability restricted to SP+create edges is a
   sub-relation of... and counts are internally consistent. *)
let prop_counts_consistent =
  QCheck2.Test.make ~name:"edge/node counts consistent" ~count:100 gen_dag (fun t ->
      let c = Dag_algo.counts t in
      c.Dag_algo.nodes = Dag.n_nodes t
      && c.Dag_algo.futures = Dag.n_futures t
      && c.Dag_algo.create_edges = Dag.n_futures t - 1
      (* every gotten future contributes exactly one get edge *)
      && c.Dag_algo.get_edges
         = List.length
             (List.filter
                (fun f -> Dag.get_node_of t f <> None)
                (List.init (Dag.n_futures t) Fun.id)))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_valid;
      prop_oracle_matches_bfs;
      prop_lemma_3_7;
      prop_lemma_3_9;
      prop_lemma_3_4;
      prop_span_le_work;
      prop_counts_consistent;
    ]

let () =
  Alcotest.run "dag"
    [
      ( "builder",
        [
          Alcotest.test_case "fork-join shape" `Quick test_forkjoin_shape;
          Alcotest.test_case "one future" `Quick test_one_future;
          Alcotest.test_case "single touch" `Quick test_single_touch_enforced;
          Alcotest.test_case "get before put" `Quick test_get_before_put_enforced;
          Alcotest.test_case "double put" `Quick test_double_put_enforced;
          Alcotest.test_case "psp view" `Quick test_psp_view;
          Alcotest.test_case "validation: missing put" `Quick
            test_validation_catches_missing_put;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ("properties", qtests);
    ]

