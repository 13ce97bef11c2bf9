(* Tests for the reachability layer.

   The centerpiece is a serial interpreter of random structured-futures
   programs that simultaneously (a) records the dag, (b) maintains
   SP-Order positions (English/Hebrew OM lists over the pseudo-SP-dag) and
   (c) maintains SP-bags; both online structures are then differential-
   tested against ground-truth PSP reachability from the recorded dag. *)

module Dag = Sfr_dag.Dag
module Dag_algo = Sfr_dag.Dag_algo
module Sp_order = Sfr_reach.Sp_order
module Sp_bags = Sfr_reach.Sp_bags
module Fp_sets = Sfr_reach.Fp_sets
module Cp_store = Sfr_reach.Cp_store
module Prng = Sfr_support.Prng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Sp_order unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_sporder_spawn_relations () =
  let t, root = Sp_order.create () in
  let child, cont, _b = Sp_order.spawn t ~cur:root ~block:None in
  check bool "root -> child" true (Sp_order.precedes t root child);
  check bool "root -> cont" true (Sp_order.precedes t root cont);
  check bool "child || cont" true (Sp_order.parallel t child cont);
  check bool "not child -> root" false (Sp_order.precedes t child root)

let test_sporder_sync_joins () =
  let t, root = Sp_order.create () in
  let child, cont, b = Sp_order.spawn t ~cur:root ~block:None in
  let s = Sp_order.sync t ~cur:cont ~block:(Some b) in
  check bool "child -> sync" true (Sp_order.precedes t child s);
  check bool "cont -> sync" true (Sp_order.precedes t cont s);
  check bool "root -> sync" true (Sp_order.precedes t root s)

let test_sporder_two_spawns_one_block () =
  let t, root = Sp_order.create () in
  let c1, t1, b = Sp_order.spawn t ~cur:root ~block:None in
  let c2, t2, b = Sp_order.spawn t ~cur:t1 ~block:(Some b) in
  check bool "c1 || c2" true (Sp_order.parallel t c1 c2);
  check bool "c1 || t2" true (Sp_order.parallel t c1 t2);
  check bool "c2 || t2" true (Sp_order.parallel t c2 t2);
  check bool "t1 -> t2" true (Sp_order.precedes t t1 t2);
  let s = Sp_order.sync t ~cur:t2 ~block:(Some b) in
  check bool "c1 -> s" true (Sp_order.precedes t c1 s);
  check bool "c2 -> s" true (Sp_order.precedes t c2 s)

let test_sporder_sync_without_block () =
  let t, root = Sp_order.create () in
  let s = Sp_order.sync t ~cur:root ~block:None in
  check bool "no-op sync keeps position" false (Sp_order.precedes t root s);
  check bool "and stays ordered with later inserts" true
    (let later = Sp_order.step t ~cur:s in
     Sp_order.precedes t root later)

let test_sporder_step_serial () =
  let t, root = Sp_order.create () in
  let a = Sp_order.step t ~cur:root in
  let b = Sp_order.step t ~cur:a in
  check bool "root -> a" true (Sp_order.precedes t root a);
  check bool "a -> b" true (Sp_order.precedes t a b);
  check bool "root -> b" true (Sp_order.precedes t root b)

(* ------------------------------------------------------------------ *)
(* Sp_bags unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_spbags_spawn_sync () =
  let t, rootf = Sp_bags.create () in
  let child = Sp_bags.spawn_child t in
  (* while the child executes, the parent frame is serial with it? No:
     queries are about *previous accessors* vs the current point. Simulate:
     child executes and returns. *)
  Sp_bags.sync t child;
  Sp_bags.child_returned t ~parent:rootf ~child;
  (* now executing the parent continuation: the child's accesses are
     logically parallel *)
  check bool "child parallel after return" false
    (Sp_bags.is_serial_with_current t child);
  check bool "own frame serial" true (Sp_bags.is_serial_with_current t rootf);
  Sp_bags.sync t rootf;
  check bool "child serial after sync" true (Sp_bags.is_serial_with_current t child)

let test_spbags_nested () =
  let t, rootf = Sp_bags.create () in
  let a = Sp_bags.spawn_child t in
  (* inside a: spawn b *)
  let b = Sp_bags.spawn_child t in
  Sp_bags.sync t b;
  Sp_bags.child_returned t ~parent:a ~child:b;
  check bool "b parallel inside a" false (Sp_bags.is_serial_with_current t b);
  Sp_bags.sync t a;
  check bool "b serial after a's sync" true (Sp_bags.is_serial_with_current t b);
  Sp_bags.child_returned t ~parent:rootf ~child:a;
  check bool "a parallel after return" false (Sp_bags.is_serial_with_current t a);
  check bool "b parallel too (inside a's bag)" false
    (Sp_bags.is_serial_with_current t b);
  Sp_bags.sync t rootf;
  check bool "all serial after root sync" true
    (Sp_bags.is_serial_with_current t a && Sp_bags.is_serial_with_current t b)

(* ------------------------------------------------------------------ *)
(* Fp_sets unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_fpsets_basic backend () =
  let eng = Fp_sets.create backend in
  let e = Fp_sets.empty eng in
  check bool "empty has no members" false (Fp_sets.mem e 3);
  let a = Fp_sets.with_added eng e 3 in
  check bool "added" true (Fp_sets.mem a 3);
  (* the canonical empty table must not have been mutated *)
  let e2 = Fp_sets.empty eng in
  check bool "empty still empty" false (Fp_sets.mem e2 3);
  Fp_sets.release e2;
  Fp_sets.release a

let test_fpsets_share_forces_copy backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let b = Fp_sets.share a in
  (* a is shared; adding must not disturb b's view *)
  let a' = Fp_sets.with_added eng a 2 in
  check bool "a' has both" true (Fp_sets.mem a' 1 && Fp_sets.mem a' 2);
  check bool "b unchanged" false (Fp_sets.mem b 2);
  Fp_sets.release a';
  Fp_sets.release b

let test_fpsets_immutable_add backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let keep = Fp_sets.share a in
  let a = Fp_sets.with_added eng a 2 in
  let a = Fp_sets.with_added eng a 3 in
  check (Alcotest.list int) "elements" [ 1; 2; 3 ] (Fp_sets.elements a);
  (* published tables are immutable: the old reference is untouched *)
  check (Alcotest.list int) "snapshot unchanged" [ 1 ] (Fp_sets.elements keep);
  (* adding a present element is the identity *)
  let allocs = Fp_sets.allocations eng in
  let a = Fp_sets.with_added eng a 2 in
  check int "present add allocates nothing" allocs (Fp_sets.allocations eng);
  Fp_sets.release keep;
  Fp_sets.release a

let test_fpsets_merge_subsume backend () =
  let eng = Fp_sets.create backend in
  let big = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let big = Fp_sets.with_added eng big 2 in
  let small = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let allocs_before = Fp_sets.allocations eng in
  let m = Fp_sets.merge eng small [ big ] in
  check int "subsuming merge allocates nothing" allocs_before
    (Fp_sets.allocations eng);
  check (Alcotest.list int) "merge result" [ 1; 2 ] (Fp_sets.elements m);
  Fp_sets.release m

let test_fpsets_merge_allocates backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let b = Fp_sets.with_added eng (Fp_sets.empty eng) 2 in
  let allocs_before = Fp_sets.allocations eng in
  let m = Fp_sets.merge eng a [ b ] in
  check int "true merge allocates once" (allocs_before + 1)
    (Fp_sets.allocations eng);
  check (Alcotest.list int) "merge result" [ 1; 2 ] (Fp_sets.elements m);
  Fp_sets.release m

let test_fpsets_merge_duplicates backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let dup = Fp_sets.share a in
  let m = Fp_sets.merge eng a [ dup ] in
  check (Alcotest.list int) "dup merge" [ 1 ] (Fp_sets.elements m);
  let m = Fp_sets.with_added eng m 2 in
  check (Alcotest.list int) "extended" [ 1; 2 ] (Fp_sets.elements m);
  Fp_sets.release m

let test_fpsets_live_words backend () =
  let eng = Fp_sets.create backend in
  let live0 = Fp_sets.live_words eng in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 100 in
  check bool "live grows" true (Fp_sets.live_words eng > live0);
  Fp_sets.release a;
  check bool "live shrinks on release" true
    (Fp_sets.live_words eng <= Fp_sets.peak_words eng)

(* Model test: a pool of published tables, each paired with a stdlib
   Set. IDs are clustered around word offsets up to 100 words out, so
   bitmap windows start far from word 0 and come out disjoint,
   overlapping or nested. After every operation every table in the pool
   must still equal its model: later [with_added]/[merge] calls never
   disturb a published table. Adding a present ID and a merge one input
   subsumes must allocate nothing; anything else allocates exactly one
   table. *)
module IntSet = Set.Make (Int)

type pool_op = Add of int * int | Merge of int * int list

let spread_id =
  QCheck2.Gen.(
    map2 (fun w off -> (w * Sys.int_size) + off) (int_bound 100) (int_bound (2 * Sys.int_size)))

let pool_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k i -> Add (k, i)) nat spread_id;
        map2 (fun k ks -> Merge (k, ks)) nat (list_size (int_range 1 3) nat);
      ])

let prop_fpsets_model backend tag =
  QCheck2.Test.make ~name:(tag ^ ": fp_sets agree with Set model") ~count:200
    QCheck2.Gen.(list_size (int_bound 40) pool_op_gen)
    (fun ops ->
      let eng = Fp_sets.create backend in
      let pool = ref [| (Fp_sets.empty eng, IntSet.empty) |] in
      let pick k = !pool.(k mod Array.length !pool) in
      let probes = ref [ 0; 62; 63; 6300 ] in
      let agrees (t, m) =
        Fp_sets.elements t = IntSet.elements m
        && Fp_sets.cardinal t = IntSet.cardinal m
        && List.for_all (fun i -> Fp_sets.mem t i = IntSet.mem i m) !probes
      in
      List.for_all
        (fun op ->
          let allocs = Fp_sets.allocations eng in
          let entry, fresh =
            match op with
            | Add (k, i) ->
                probes := i :: !probes;
                let t, m = pick k in
                let t' = Fp_sets.with_added eng (Fp_sets.share t) i in
                if IntSet.mem i m && t' != t then
                  QCheck2.Test.fail_reportf "present add of %d copied" i;
                ((t', IntSet.add i m), not (IntSet.mem i m))
            | Merge (k, ks) ->
                let inputs = List.map pick (k :: ks) in
                let union = List.fold_left (fun u (_, m) -> IntSet.union u m) IntSet.empty inputs in
                let merged =
                  match List.map (fun (t, _) -> Fp_sets.share t) inputs with
                  | p :: others -> Fp_sets.merge eng p others
                  | [] -> assert false
                in
                ((merged, union), not (List.exists (fun (_, m) -> IntSet.equal m union) inputs))
          in
          pool := Array.append !pool [| entry |];
          let grew = Fp_sets.allocations eng - allocs in
          if grew <> if fresh then 1 else 0 then
            QCheck2.Test.fail_reportf "allocated %d tables, expected %d" grew
              (if fresh then 1 else 0);
          Array.for_all agrees !pool)
        ops)

(* Membership probes on both reachability sets allocate nothing. *)
let test_mem_allocates_nothing () =
  let eng = Fp_sets.create Fp_sets.Bitmap in
  let gp = Fp_sets.with_added eng (Fp_sets.with_added eng (Fp_sets.empty eng) 700) 1300 in
  let cp = Cp_store.create () in
  let chain = Cp_store.add_child cp ~parent:0 in
  (* futures 2..11 nest under [chain]; past depth 4 they take bitmaps *)
  let deep = ref chain in
  for _ = 1 to 10 do
    deep := Cp_store.add_child cp ~parent:!deep
  done;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    if Fp_sets.mem gp i then incr hits;
    if Cp_store.mem cp chain ~fid:(i land 1) ~depth:0 then incr hits;
    if Cp_store.mem cp !deep ~fid:(i mod 12) ~depth:(i mod 12) then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check bool (Printf.sprintf "no allocation (%.0f words)" words) true (words < 64.);
  (* 700 and 1300; even IDs in cp(chain) = {0}; 11 of every 12 probes
     of the depth-11 future's bitmap (ancestors 0..10 at depths 0..10) *)
  check int "hits" (2 + 5000 + 9167) !hits

(* cp store against an ancestor model over random create trees. Half the
   creates extend the newest future, so nests run deep enough for the
   bitmap layout while wide levels keep chains; membership must agree
   for every (future, candidate ancestor) pair in both layouts. *)
let prop_cp_store_model =
  QCheck2.Test.make ~name:"cp store agrees with ancestor model" ~count:60
    QCheck2.Gen.(list_size (int_range 1 300) (pair bool nat))
    (fun picks ->
      let cp = Cp_store.create () in
      let parent = ref [| -1 |] and depth = ref [| 0 |] in
      List.iter
        (fun (deepen, k) ->
          let n = Array.length !parent in
          let p = if deepen then n - 1 else k mod n in
          let fid = Cp_store.add_child cp ~parent:p in
          assert (fid = n);
          parent := Array.append !parent [| p |];
          depth := Array.append !depth [| !depth.(p) + 1 |])
        picks;
      let n = Array.length !parent in
      let rec is_anc f g = g > 0 && (!parent.(g) = f || is_anc f !parent.(g)) in
      List.for_all
        (fun g ->
          List.for_all
            (fun f -> Cp_store.mem cp g ~fid:f ~depth:!depth.(f) = is_anc f g)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Differential testing against ground-truth PSP reachability           *)
(* ------------------------------------------------------------------ *)

type frame_sim = {
  bags_frame : Sp_bags.frame;
  mutable block : Sp_order.block option;
  mutable spawned_lasts : Dag.node list;
  mutable created : Dag.future list;
}

type sim = {
  dag : Dag.t;
  spo : Sp_order.t;
  bags : Sp_bags.t;
  mutable pos_of : (Dag.node * Sp_order.pos) list;
  (* snapshot of SP-bags answers taken when each strand became current:
     (v, u, was_serial) *)
  mutable bags_obs : (Dag.node * Dag.node * bool) list;
  mutable executed : (Dag.node * Sp_bags.frame) list; (* most recent first *)
}

let observe sim v frame =
  List.iter
    (fun (u, uframe) ->
      sim.bags_obs <-
        (v, u, Sp_bags.is_serial_with_current sim.bags uframe) :: sim.bags_obs)
    sim.executed;
  sim.executed <- (v, frame) :: sim.executed

let register sim v pos = sim.pos_of <- (v, pos) :: sim.pos_of

(* Serial interpreter of a random structured program driving all three
   structures. Returns the frame's final (node, pos). *)
let run_random_program seed ~max_ops ~max_depth =
  let rng = Prng.create seed in
  let dag, root = Dag.create () in
  let spo, root_pos = Sp_order.create () in
  let bags, root_frame = Sp_bags.create () in
  let sim = { dag; spo; bags; pos_of = []; bags_obs = []; executed = [] } in
  register sim root root_pos;
  observe sim root root_frame;
  let budget = ref max_ops in
  let rec run_frame ~first ~first_pos frame depth =
    let cur = ref first and pos = ref first_pos in
    let handles = ref [] in
    let steps = 2 + Prng.int rng 8 in
    for _ = 0 to steps do
      if !budget > 0 then begin
        decr budget;
        match Prng.int rng 8 with
        | 0 | 1 when depth < max_depth ->
            let child, cont = Dag.spawn sim.dag ~cur:!cur in
            let cpos, tpos, block =
              Sp_order.spawn sim.spo ~cur:!pos ~block:frame.block
            in
            frame.block <- Some block;
            register sim child cpos;
            register sim cont tpos;
            let child_frame =
              {
                bags_frame = Sp_bags.spawn_child sim.bags;
                block = None;
                spawned_lasts = [];
                created = [];
              }
            in
            observe sim child child_frame.bags_frame;
            let child_last, _ = run_frame ~first:child ~first_pos:cpos child_frame (depth + 1) in
            Sp_bags.child_returned sim.bags ~parent:frame.bags_frame
              ~child:child_frame.bags_frame;
            frame.spawned_lasts <- child_last :: frame.spawned_lasts;
            cur := cont;
            pos := tpos;
            observe sim cont frame.bags_frame
        | 2 | 3 when depth < max_depth ->
            let child, cont, fid = Dag.create_future sim.dag ~cur:!cur in
            let cpos, tpos, block =
              Sp_order.spawn sim.spo ~cur:!pos ~block:frame.block
            in
            frame.block <- Some block;
            register sim child cpos;
            register sim cont tpos;
            let child_frame =
              {
                bags_frame = Sp_bags.spawn_child sim.bags;
                block = None;
                spawned_lasts = [];
                created = [];
              }
            in
            observe sim child child_frame.bags_frame;
            let child_last, _ = run_frame ~first:child ~first_pos:cpos child_frame (depth + 1) in
            Dag.put sim.dag ~cur:child_last;
            Sp_bags.child_returned sim.bags ~parent:frame.bags_frame
              ~child:child_frame.bags_frame;
            frame.created <- fid :: frame.created;
            handles := fid :: !handles;
            cur := cont;
            pos := tpos;
            observe sim cont frame.bags_frame
        | 4 when frame.spawned_lasts <> [] || frame.created <> [] ->
            let s =
              Dag.sync sim.dag ~cur:!cur ~spawned_lasts:frame.spawned_lasts
                ~created:frame.created
            in
            let spos = Sp_order.sync sim.spo ~cur:!pos ~block:frame.block in
            Sp_bags.sync sim.bags frame.bags_frame;
            frame.spawned_lasts <- [];
            frame.created <- [];
            frame.block <- None;
            register sim s spos;
            cur := s;
            pos := spos;
            observe sim s frame.bags_frame
        | 5 | 6 when !handles <> [] ->
            let i = Prng.int rng (List.length !handles) in
            let h = List.nth !handles i in
            handles := List.filteri (fun j _ -> j <> i) !handles;
            let g = Dag.get sim.dag ~cur:!cur ~future:h in
            let gpos = Sp_order.step sim.spo ~cur:!pos in
            register sim g gpos;
            cur := g;
            pos := gpos;
            observe sim g frame.bags_frame
        | _ -> ()
      end
    done;
    (* frame-end implicit sync *)
    if frame.spawned_lasts <> [] || frame.created <> [] then begin
      let s =
        Dag.sync sim.dag ~cur:!cur ~spawned_lasts:frame.spawned_lasts
          ~created:frame.created
      in
      let spos = Sp_order.sync sim.spo ~cur:!pos ~block:frame.block in
      Sp_bags.sync sim.bags frame.bags_frame;
      frame.spawned_lasts <- [];
      frame.created <- [];
      frame.block <- None;
      register sim s spos;
      cur := s;
      pos := spos;
      observe sim s frame.bags_frame
    end;
    (!cur, !pos)
  in
  let root_frame_sim =
    { bags_frame = root_frame; block = None; spawned_lasts = []; created = [] }
  in
  let final, _ = run_frame ~first:root ~first_pos:root_pos root_frame_sim 0 in
  Dag.put sim.dag ~cur:final;
  sim

let prop_sporder_matches_psp =
  QCheck2.Test.make ~name:"sp_order precedes = ground-truth PSP reachability"
    ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
      let oracle = Dag_algo.build_oracle sim.dag Dag_algo.Psp in
      List.for_all
        (fun (u, upos) ->
          List.for_all
            (fun (v, vpos) ->
              Sp_order.precedes sim.spo upos vpos = Dag_algo.precedes oracle u v)
            sim.pos_of)
        sim.pos_of)

let prop_spbags_matches_psp =
  QCheck2.Test.make ~name:"sp_bags answers = ground-truth PSP reachability"
    ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
      let oracle = Dag_algo.build_oracle sim.dag Dag_algo.Psp in
      List.for_all
        (fun (v, u, was_serial) -> was_serial = Dag_algo.precedes oracle u v)
        sim.bags_obs)

(* The differential properties are only meaningful if the generator
   produces real structure; pin that down. *)
let test_generator_nontrivial () =
  let nodes = ref 0 and futures = ref 0 and gets = ref 0 and biggest = ref 0 in
  for seed = 0 to 49 do
    let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
    let n = Dag.n_nodes sim.dag in
    nodes := !nodes + n;
    futures := !futures + Dag.n_futures sim.dag - 1;
    biggest := max !biggest n;
    for f = 1 to Dag.n_futures sim.dag - 1 do
      if Dag.get_node_of sim.dag f <> None then incr gets
    done
  done;
  check bool "enough nodes overall" true (!nodes > 1_500);
  check bool "enough futures overall" true (!futures > 100);
  check bool "some gets happen" true (!gets > 30);
  check bool "some big programs" true (!biggest >= 40)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sporder_matches_psp; prop_spbags_matches_psp ]

let fpsets_cases backend tag =
  [
    Alcotest.test_case (tag ^ ": basic") `Quick (test_fpsets_basic backend);
    Alcotest.test_case (tag ^ ": share forces copy") `Quick
      (test_fpsets_share_forces_copy backend);
    Alcotest.test_case (tag ^ ": immutable additions") `Quick
      (test_fpsets_immutable_add backend);
    Alcotest.test_case (tag ^ ": merge subsumes") `Quick
      (test_fpsets_merge_subsume backend);
    Alcotest.test_case (tag ^ ": merge allocates") `Quick
      (test_fpsets_merge_allocates backend);
    Alcotest.test_case (tag ^ ": merge duplicates") `Quick
      (test_fpsets_merge_duplicates backend);
    Alcotest.test_case (tag ^ ": live words") `Quick
      (test_fpsets_live_words backend);
    QCheck_alcotest.to_alcotest (prop_fpsets_model backend tag);
  ]

let () =
  if Sys.getenv_opt "SFR_SIZES" <> None then begin
    let nodes = ref 0 and futures = ref 0 and gets = ref 0 and biggest = ref 0 in
    for seed = 0 to 49 do
      let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
      let n = Dag.n_nodes sim.dag in
      nodes := !nodes + n;
      futures := !futures + Dag.n_futures sim.dag - 1;
      biggest := max !biggest n;
      for f = 1 to Dag.n_futures sim.dag - 1 do
        if Dag.get_node_of sim.dag f <> None then incr gets
      done
    done;
    Printf.printf "nodes=%d futures=%d gets=%d biggest=%d\n" !nodes !futures !gets !biggest;
    exit 0
  end

let () =
  Alcotest.run "reach"
    [
      ( "sp_order",
        [
          Alcotest.test_case "spawn relations" `Quick test_sporder_spawn_relations;
          Alcotest.test_case "sync joins" `Quick test_sporder_sync_joins;
          Alcotest.test_case "two spawns one block" `Quick
            test_sporder_two_spawns_one_block;
          Alcotest.test_case "sync without block" `Quick
            test_sporder_sync_without_block;
          Alcotest.test_case "step serial" `Quick test_sporder_step_serial;
        ] );
      ( "sp_bags",
        [
          Alcotest.test_case "spawn/sync" `Quick test_spbags_spawn_sync;
          Alcotest.test_case "nested" `Quick test_spbags_nested;
        ] );
      ( "fp_sets",
        fpsets_cases Fp_sets.Bitmap "bitmap" @ fpsets_cases Fp_sets.Hashed "hashed" );
      ( "cp_store",
        [
          Alcotest.test_case "mem allocates nothing" `Quick test_mem_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_cp_store_model;
        ] );
      ( "differential",
        Alcotest.test_case "generator is nontrivial" `Quick test_generator_nontrivial
        :: qtests );
    ]

