(* Unit and property tests for the support substrate: bitsets, the
   chunked vector, the paged location table, union-find, PRNG
   determinism, stats, and table rendering. *)

module Bitset = Sfr_support.Bitset
module Chunk_vec = Sfr_support.Chunk_vec
module Loc_table = Sfr_support.Loc_table
module Union_find = Sfr_support.Union_find
module Prng = Sfr_support.Prng
module Stats = Sfr_support.Stats
module Tablefmt = Sfr_support.Tablefmt

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Bitset unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bitset_empty () =
  let s = Bitset.create () in
  check bool "empty" true (Bitset.is_empty s);
  check int "cardinal" 0 (Bitset.cardinal s);
  check bool "mem out of range" false (Bitset.mem s 1000)

let test_bitset_add_mem () =
  let s = Bitset.create () in
  Bitset.add s 0;
  Bitset.add s 62;
  Bitset.add s 63;
  Bitset.add s 1000;
  check bool "mem 0" true (Bitset.mem s 0);
  check bool "mem 62" true (Bitset.mem s 62);
  check bool "mem 63" true (Bitset.mem s 63);
  check bool "mem 1000" true (Bitset.mem s 1000);
  check bool "mem 64" false (Bitset.mem s 64);
  check int "cardinal" 4 (Bitset.cardinal s)

let test_bitset_remove () =
  let s = Bitset.singleton 42 in
  check bool "mem before" true (Bitset.mem s 42);
  Bitset.remove s 42;
  check bool "mem after" false (Bitset.mem s 42);
  Bitset.remove s 9999 (* out of range removal is a no-op *)

let test_bitset_union () =
  let a = Bitset.singleton 1 and b = Bitset.singleton 200 in
  Bitset.union_into ~dst:a b;
  check bool "has 1" true (Bitset.mem a 1);
  check bool "has 200" true (Bitset.mem a 200);
  check bool "b unchanged" false (Bitset.mem b 1)

let test_bitset_subset () =
  let a = Bitset.create () and b = Bitset.create () in
  Bitset.add a 3;
  Bitset.add b 3;
  Bitset.add b 70;
  check bool "a subset b" true (Bitset.subset a b);
  check bool "b not subset a" false (Bitset.subset b a);
  check bool "empty subset" true (Bitset.subset (Bitset.create ()) a)

let test_bitset_private_bits () =
  let a = Bitset.singleton 1 and b = Bitset.singleton 2 in
  check bool "disjoint -> both private" true (Bitset.each_side_has_private_bit a b);
  let c = Bitset.copy a in
  Bitset.add c 2;
  check bool "superset -> no" false (Bitset.each_side_has_private_bit a c);
  check bool "symmetric" false (Bitset.each_side_has_private_bit c a);
  check bool "equal -> no" false (Bitset.each_side_has_private_bit a (Bitset.copy a))

let test_bitset_elements () =
  let s = Bitset.create () in
  List.iter (Bitset.add s) [ 5; 1; 300; 64 ];
  check (Alcotest.list int) "sorted elements" [ 1; 5; 64; 300 ] (Bitset.elements s)

(* ------------------------------------------------------------------ *)
(* Bitset property tests vs a reference model                          *)
(* ------------------------------------------------------------------ *)

module IntSet = Set.Make (Int)

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> `Add i) (int_bound 500);
        map (fun i -> `Remove i) (int_bound 500);
      ])

let apply_ops ops =
  let s = Bitset.create () in
  let model =
    List.fold_left
      (fun model op ->
        match op with
        | `Add i ->
            Bitset.add s i;
            IntSet.add i model
        | `Remove i ->
            Bitset.remove s i;
            IntSet.remove i model)
      IntSet.empty ops
  in
  (s, model)

let prop_bitset_model =
  QCheck2.Test.make ~name:"bitset agrees with Set model" ~count:300
    QCheck2.Gen.(list_size (int_bound 60) op_gen)
    (fun ops ->
      let s, model = apply_ops ops in
      IntSet.elements model = Bitset.elements s
      && IntSet.cardinal model = Bitset.cardinal s
      && List.for_all (fun i -> Bitset.mem s i = IntSet.mem i model)
           (List.init 501 Fun.id))

let prop_bitset_union =
  QCheck2.Test.make ~name:"bitset union agrees with Set union" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_bound 40) op_gen) (list_size (int_bound 40) op_gen))
    (fun (ops_a, ops_b) ->
      let a, ma = apply_ops ops_a in
      let b, mb = apply_ops ops_b in
      Bitset.union_into ~dst:a b;
      IntSet.elements (IntSet.union ma mb) = Bitset.elements a)

let prop_bitset_subset =
  QCheck2.Test.make ~name:"bitset subset agrees with Set subset" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_bound 40) op_gen) (list_size (int_bound 40) op_gen))
    (fun (ops_a, ops_b) ->
      let a, ma = apply_ops ops_a in
      let b, mb = apply_ops ops_b in
      Bitset.subset a b = IntSet.subset ma mb
      && Bitset.each_side_has_private_bit a b
         = (not (IntSet.subset ma mb) && not (IntSet.subset mb ma)))

(* Windowed sets built functionally, from IDs clustered up to 100 words
   out: [with_added] and [union] must match the model, leave their inputs
   alone, and size the window to exactly the words their members span. *)
let spread_ids =
  QCheck2.Gen.(
    list_size (int_bound 12)
      (map2 (fun w off -> (w * Sys.int_size) + off) (int_bound 100) (int_bound (2 * Sys.int_size))))

let build ids = List.fold_left Bitset.with_added (Bitset.create ()) ids

let tight s =
  match Bitset.elements s with
  | [] -> Bitset.words s = 0
  | es ->
      let lo, hi = Bitset.window s in
      lo = List.hd es / Sys.int_size && hi = List.nth es (List.length es - 1) / Sys.int_size

let prop_bitset_windows =
  QCheck2.Test.make ~name:"windowed with_added/union/subset agree with Set model" ~count:300
    QCheck2.Gen.(triple spread_ids spread_ids spread_ids)
    (fun (xs, ys, zs) ->
      let a = build xs and b = build ys and c = build zs in
      let ma = IntSet.of_list xs and mb = IntSet.of_list ys and mc = IntSet.of_list zs in
      let u = Bitset.union [ a; b; c ] in
      let mu = IntSet.union ma (IntSet.union mb mc) in
      let v = Bitset.with_added u 6000 in
      let agrees s m =
        Bitset.elements s = IntSet.elements m
        && Bitset.cardinal s = IntSet.cardinal m
        && List.for_all (fun i -> Bitset.mem s i) (IntSet.elements m)
        && List.for_all (fun i -> Bitset.mem s i = IntSet.mem i m) (xs @ ys @ zs @ [ 0; 6299 ])
      in
      agrees a ma && agrees b mb && agrees c mc && agrees u mu
      && agrees v (IntSet.add 6000 mu)
      && tight a && tight u && tight v
      && Bitset.subset a b = IntSet.subset ma mb
      && Bitset.subset a u
      && Bitset.equal u (Bitset.union [ c; b; a ]))

(* SWAR popcount vs a bit-probing reference, across the whole word
   including the sign bit (the 63rd bit of an OCaml int). *)
let popcount_ref x =
  let n = ref 0 in
  for i = 0 to Sys.int_size - 1 do
    if x land (1 lsl i) <> 0 then incr n
  done;
  !n

let test_popcount_boundaries () =
  List.iter
    (fun x ->
      check int (Printf.sprintf "popcount %#x" x) (popcount_ref x)
        (Bitset.popcount_word x))
    [ 0; 1; -1; 2; 3; max_int; min_int; min_int + 1; 1 lsl 62; (1 lsl 62) - 1;
      1 lsl 31; (1 lsl 31) - 1; 0x0F0F; -2; lnot 1 ]

let prop_popcount_model =
  QCheck2.Test.make ~name:"SWAR popcount agrees with bit probing" ~count:2000
    QCheck2.Gen.(map Int64.to_int int64)
    (fun x -> Bitset.popcount_word x = popcount_ref x)

(* iter must produce exactly the members, ascending, including bits at
   word boundaries (62/63/64 on a 63-bit-int build) *)
let test_iter_word_boundaries () =
  let s = Bitset.create () in
  let members = [ 0; 1; 61; 62; 63; 64; 125; 126; 127; 500 ] in
  List.iter (Bitset.add s) members;
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  check (Alcotest.list int) "iter ascending over boundaries" members
    (List.rev !seen)

let prop_iter_model =
  QCheck2.Test.make ~name:"LSB iter visits exactly the members, ascending"
    ~count:300
    QCheck2.Gen.(list_size (int_bound 60) op_gen)
    (fun ops ->
      let s, model = apply_ops ops in
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) s;
      List.rev !seen = IntSet.elements model)

(* ------------------------------------------------------------------ *)
(* Chunk_vec                                                           *)
(* ------------------------------------------------------------------ *)

let test_chunk_vec_roundtrip () =
  let v = Chunk_vec.create (-1) in
  check int "empty length" 0 (Chunk_vec.length v);
  (* cross several chunk boundaries (chunks are 512 slots) *)
  for i = 0 to 1499 do
    check int "push returns the index" i (Chunk_vec.push v (i * 3))
  done;
  check int "length" 1500 (Chunk_vec.length v);
  for i = 0 to 1499 do
    if Chunk_vec.get v i <> i * 3 then
      Alcotest.failf "get %d = %d, expected %d" i (Chunk_vec.get v i) (i * 3)
  done;
  check int "chunk count is ceil(len/512)" 3 (Chunk_vec.chunk_allocs v)

let test_chunk_vec_sharing () =
  (* chunks are shared structurally between spine snapshots: growing the
     spine must reuse the existing chunk arrays, never copy elements *)
  let v = Chunk_vec.create (-1) in
  for i = 0 to 511 do
    ignore (Chunk_vec.push v i)
  done;
  let before = Chunk_vec.debug_chunks v in
  ignore (Chunk_vec.push v 512);
  (* crosses into chunk 1 *)
  let after = Chunk_vec.debug_chunks v in
  check int "one chunk before" 1 (Array.length before);
  check int "two chunks after" 2 (Array.length after);
  check bool "chunk 0 physically shared" true (before.(0) == after.(0));
  for i = 0 to 1000 do
    ignore (Chunk_vec.push v (513 + i))
  done;
  let later = Chunk_vec.debug_chunks v in
  check bool "chunk 0 still shared" true (before.(0) == later.(0));
  check bool "chunk 1 shared" true (after.(1) == later.(1))

let test_chunk_vec_alloc_linear () =
  (* container growth is O(n) words, not the O(n²) of per-push
     copy-on-write snapshots: for n pushes, chunks account 512 words per
     512 pushes and spine copies 1+2+...+ceil(n/512) *)
  let hook_total = ref 0 in
  let v = Chunk_vec.create ~on_alloc:(fun w -> hook_total := !hook_total + w) 0 in
  let n = 8 * 512 in
  for i = 0 to n - 1 do
    ignore (Chunk_vec.push v i)
  done;
  let words = Chunk_vec.alloc_words v in
  check int "on_alloc hook saw every allocation" words !hook_total;
  check bool "linear in n" true (words < 2 * n);
  (* the copy-on-write equivalent would be n*(n+1)/2 words *)
  check bool "far below quadratic" true (words * 100 < n * (n + 1) / 2)

let test_chunk_vec_parallel_push () =
  let v = Chunk_vec.create (-1) in
  let per_domain = 600 in
  let ds =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            List.init per_domain (fun i -> Chunk_vec.push v ((d * per_domain) + i))))
  in
  let idxs = List.concat_map Domain.join ds in
  check int "every push got a slot" (3 * per_domain) (Chunk_vec.length v);
  (* indices are a permutation of 0..n-1 *)
  let sorted = List.sort compare idxs in
  check (Alcotest.list int) "indices dense and unique"
    (List.init (3 * per_domain) Fun.id)
    sorted;
  (* every stored value is read back exactly once across all indices *)
  let vals = List.sort compare (List.map (Chunk_vec.get v) idxs) in
  check (Alcotest.list int) "values all present"
    (List.init (3 * per_domain) Fun.id)
    vals

(* ------------------------------------------------------------------ *)
(* Loc_table                                                           *)
(* ------------------------------------------------------------------ *)

(* cells are fresh refs: physically distinct from the dummy and from
   each other *)
let loc_table ?(made = Atomic.make 0) () =
  Loc_table.create ~dummy:(ref (-1)) (fun () -> ref (Atomic.fetch_and_add made 1))

(* Locations in runs: dense around zero, walking down page by page,
   stepping within a page, and far apart (including the extremes). *)
let loc_runs_gen =
  QCheck2.Gen.(
    let run =
      oneof
        [
          map (fun l -> [ l ]) (int_range (-5_000) 5_000);
          map
            (fun (start, n, step) -> List.init n (fun i -> start - (i * step)))
            (triple (int_range 0 100_000) (int_range 1 50) (oneofl [ 1; 7; 64; 640 ]));
          map (fun start -> List.init 70 (fun i -> start + i)) (int_range (-200) 200);
          map (fun l -> [ l ])
            (oneofl [ 0; 1 lsl 20; 1 lsl 40; 1 lsl 61; max_int; min_int; -1 ]);
          map (fun l -> [ l ]) int;
        ]
    in
    map List.concat (list_size (int_bound 30) run))

let prop_loc_table_model =
  QCheck2.Test.make ~name:"loc table agrees with a Hashtbl model" ~count:300
    ~print:QCheck2.Print.(list int)
    loc_runs_gen
    (fun locs ->
      let t = loc_table () in
      let model = Hashtbl.create 64 in
      let same loc =
        let c = Loc_table.get t loc in
        match Hashtbl.find_opt model loc with
        | Some c' -> c == c'
        | None ->
            Hashtbl.add model loc c;
            true
      in
      (* cells carry unique serials: compare the sets folded over *)
      let serials cells = List.sort compare (List.map ( ! ) cells) in
      (* first pass grows the directory; the second must find every
         cell, physically unchanged, through the grown directory *)
      List.for_all same locs
      && List.for_all same locs
      && Loc_table.length t = Hashtbl.length model
      && serials (Loc_table.fold (fun acc c -> c :: acc) [] t)
         = serials (Hashtbl.fold (fun _ c acc -> c :: acc) model []))

let test_loc_table_parallel_get () =
  let made = Atomic.make 0 in
  let t = loc_table ~made () in
  let n = 4_000 in
  (* overlapping orders: ascending, descending, strided, and from the
     middle out — each domain races the others to create pages *)
  let order d i =
    match d with
    | 0 -> i
    | 1 -> n - 1 - i
    | 2 -> i * 7 mod n
    | _ -> ((n / 2) + if i mod 2 = 0 then i / 2 else -(i / 2) - 1) mod n
  in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let cells = Array.make n (ref (-1)) in
            for i = 0 to n - 1 do
              let k = order d i in
              cells.(k) <- Loc_table.get t (1_000_000 - (k * 3))
            done;
            cells))
  in
  let all = List.map Domain.join ds in
  check int "one cell made per location" n (Atomic.get made);
  check int "length" n (Loc_table.length t);
  let first = List.hd all in
  List.iter
    (fun cells ->
      Array.iteri
        (fun k c ->
          if c != first.(k) then Alcotest.failf "location %d: domains saw different cells" k)
        cells)
    all

let test_loc_table_bounded () =
  (* a walk down 41 pages, one location each: the directory grows
     toward the miss, so this is O(pages), not a doubling per step *)
  let t = loc_table () in
  for p = 0 to 40 do
    ignore (Loc_table.get t ((1_000 - p) * 64))
  done;
  check int "41 cells" 41 (Loc_table.length t);
  check bool "descending walk under 10k words" true (Loc_table.words t < 10_000);
  (* far-apart locations: all but the first page overflow the window *)
  let t = loc_table () in
  let far = [ 0; 1 lsl 20; 1 lsl 40; 1 lsl 61 ] in
  let cells = List.map (Loc_table.get t) far in
  check int "4 cells" 4 (Loc_table.length t);
  check bool "far-apart locations under 10k words" true (Loc_table.words t < 10_000);
  List.iter2
    (fun l c -> check bool "far cell found again" true (Loc_table.get t l == c))
    far cells

let test_loc_table_overflow_promoted () =
  (* page 0, then a page beyond the 2^16-location floor: it overflows *)
  let t = loc_table () in
  ignore (Loc_table.get t 0);
  let far_loc = 2_000 * 64 in
  let far = Loc_table.get t far_loc in
  check int "far page overflows" 1 (Loc_table.overflow_pages t);
  (* walking up page by page widens the window until it covers the far
     page, which must then move into the directory *)
  let p = ref 1 in
  while Loc_table.overflow_pages t > 0 && !p < 2_000 do
    ignore (Loc_table.get t (!p * 64));
    incr p
  done;
  check int "far page promoted" 0 (Loc_table.overflow_pages t);
  check bool "promoted before reaching it" true (!p < 2_000);
  check bool "same cell after promotion" true (Loc_table.get t far_loc == far);
  check int "no cell lost" (!p + 1) (Loc_table.length t)

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let t = Union_find.create () in
  let a = Union_find.make_set t in
  let b = Union_find.make_set t in
  let c = Union_find.make_set t in
  check bool "distinct" false (Union_find.same t a b);
  let _ = Union_find.union t a b in
  check bool "merged" true (Union_find.same t a b);
  check bool "c apart" false (Union_find.same t a c);
  let _ = Union_find.union t b c in
  check bool "transitive" true (Union_find.same t a c);
  check int "count" 3 (Union_find.count t)

(* Reference model: partition as a map from element to a canonical member
   computed by naive flooding. *)
let prop_uf_model =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 30) (list_size (int_bound 60) (pair (int_bound 29) (int_bound 29))))
  in
  QCheck2.Test.make ~name:"union-find agrees with naive partition" ~count:200 gen
    (fun (n, unions) ->
      let unions = List.filter (fun (a, b) -> a < n && b < n) unions in
      let t = Union_find.create () in
      for _ = 1 to n do
        ignore (Union_find.make_set t)
      done;
      List.iter (fun (a, b) -> ignore (Union_find.union t a b)) unions;
      (* naive model: repeatedly propagate minimum representative *)
      let repr = Array.init n Fun.id in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (a, b) ->
            let m = min repr.(a) repr.(b) in
            if repr.(a) <> m || repr.(b) <> m then begin
              (* unify the two classes entirely *)
              let ra = repr.(a) and rb = repr.(b) in
              Array.iteri (fun i r -> if r = ra || r = rb then repr.(i) <- m) repr;
              changed := true
            end)
          unions
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Union_find.same t i j <> (repr.(i) = repr.(j)) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let c = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Prng.int c 1_000_000) in
  check bool "split streams differ" true (xs <> ys)

let prop_prng_bounds =
  QCheck2.Test.make ~name:"prng int stays in bounds" ~count:200
    QCheck2.Gen.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.int g bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_prng_float_bounds =
  QCheck2.Test.make ~name:"prng float stays in bounds" ~count:200
    QCheck2.Gen.small_int
    (fun seed ->
      let g = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.float g 3.5 in
          v >= 0.0 && v < 3.5)
        (List.init 50 Fun.id))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let flt = Alcotest.float 1e-9

let test_stats_mean () =
  check flt "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check bool "mean empty is nan" true (Float.is_nan (Stats.mean []))

let test_stats_stddev () =
  check flt "stddev constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check flt "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_median () =
  check flt "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check flt "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check bool "empty is nan" true (Float.is_nan (Stats.median []))

let test_stats_median_nan () =
  (* Float.compare sorts nan below every number, so the result is
     deterministic — unlike polymorphic compare, whose nan ordering is
     unspecified and could make the median depend on input order. *)
  check bool "all-nan is nan" true (Float.is_nan (Stats.median [ nan ]));
  check flt "nan sorts first (odd)" 1.0 (Stats.median [ 1.0; nan; 3.0 ]);
  check flt "nan sorts first, any order" 1.0 (Stats.median [ 3.0; 1.0; nan ]);
  check flt "nan sorts first (even)" 1.5
    (Stats.median [ nan; 2.0; 1.0; 7.0 ])

let test_stats_minmax () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.0 ] in
  check flt "min" (-1.0) lo;
  check flt "max" 7.0 hi

let test_stats_repeat () =
  let result, times = Stats.repeat_timed 5 (fun () -> 42) in
  check int "result" 42 result;
  check int "five timings" 5 (List.length times);
  List.iter (fun t -> check bool "non-negative" true (t >= 0.0)) times

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_table_render () =
  let t =
    Tablefmt.create ~title:"demo" [ ("name", Tablefmt.Left); ("n", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "b"; "100" ];
  let s = Tablefmt.render t in
  check bool "has title" true (String.length s > 4 && String.sub s 0 4 = "demo");
  check bool "contains alpha" true (contains_substring s "alpha");
  check bool "contains header" true (contains_substring s "name")

let test_table_cells () =
  check Alcotest.string "times" "(37.84x)" (Tablefmt.cell_times 37.84);
  check Alcotest.string "speedup" "[19.10x]" (Tablefmt.cell_speedup 19.1);
  check Alcotest.string "small int" "4200" (Tablefmt.cell_int_compact 4200);
  check Alcotest.string "big int" "1.72e10" (Tablefmt.cell_int_compact 17_200_000_000)

let test_table_mismatch () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "row width checked" (Invalid_argument "Tablefmt.add_row: cell count mismatch")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitset_model;
      prop_bitset_union;
      prop_bitset_subset;
      prop_bitset_windows;
      prop_popcount_model;
      prop_iter_model;
      prop_loc_table_model;
      prop_uf_model;
      prop_prng_bounds;
      prop_prng_float_bounds;
    ]

let () =
  Alcotest.run "support"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/mem" `Quick test_bitset_add_mem;
          Alcotest.test_case "remove" `Quick test_bitset_remove;
          Alcotest.test_case "union" `Quick test_bitset_union;
          Alcotest.test_case "subset" `Quick test_bitset_subset;
          Alcotest.test_case "private bits" `Quick test_bitset_private_bits;
          Alcotest.test_case "elements sorted" `Quick test_bitset_elements;
          Alcotest.test_case "popcount boundaries" `Quick test_popcount_boundaries;
          Alcotest.test_case "iter word boundaries" `Quick test_iter_word_boundaries;
        ] );
      ( "chunk_vec",
        [
          Alcotest.test_case "roundtrip" `Quick test_chunk_vec_roundtrip;
          Alcotest.test_case "chunk sharing" `Quick test_chunk_vec_sharing;
          Alcotest.test_case "linear allocation" `Quick test_chunk_vec_alloc_linear;
          Alcotest.test_case "parallel push" `Quick test_chunk_vec_parallel_push;
        ] );
      ( "loc_table",
        [
          Alcotest.test_case "parallel get" `Quick test_loc_table_parallel_get;
          Alcotest.test_case "bounded words" `Quick test_loc_table_bounded;
          Alcotest.test_case "overflow promoted" `Quick test_loc_table_overflow_promoted;
        ] );
      ( "union_find",
        [ Alcotest.test_case "basic" `Quick test_uf_basic ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "median nan" `Quick test_stats_median_nan;
          Alcotest.test_case "min_max" `Quick test_stats_minmax;
          Alcotest.test_case "repeat_timed" `Quick test_stats_repeat;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
        ] );
      ("properties", qtests);
    ]
