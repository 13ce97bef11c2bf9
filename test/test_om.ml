(* Tests for the order-maintenance list: ordering correctness against a
   reference list model, invariant checks across rebalancing,
   adversarial insertion patterns, and cross-domain query consistency. *)

module Om = Sfr_om.Om

let check = Alcotest.check
let bool = Alcotest.bool

let test_base_only () =
  let t, base = Om.create () in
  check bool "base does not precede itself" false (Om.precedes t base base);
  check Alcotest.int "size" 1 (Om.size t);
  Om.check_invariants t

let test_simple_chain () =
  let t, base = Om.create () in
  let a = Om.insert_after t base in
  let b = Om.insert_after t a in
  let c = Om.insert_after t b in
  check bool "base < a" true (Om.precedes t base a);
  check bool "a < b" true (Om.precedes t a b);
  check bool "b < c" true (Om.precedes t b c);
  check bool "base < c" true (Om.precedes t base c);
  check bool "c < a is false" false (Om.precedes t c a);
  check bool "a < a is false" false (Om.precedes t a a);
  Om.check_invariants t

let test_insert_between () =
  let t, base = Om.create () in
  let z = Om.insert_after t base in
  let m = Om.insert_after t base in
  (* now order is base, m, z *)
  check bool "base < m" true (Om.precedes t base m);
  check bool "m < z" true (Om.precedes t m z);
  Om.check_invariants t

(* Adversarial: always insert right after base. Forces item-label
   exhaustion, group relabeling, and group splits. *)
let test_hammer_front () =
  let t, base = Om.create () in
  let items = ref [] in
  for _ = 1 to 5_000 do
    items := Om.insert_after t base :: !items
  done;
  Om.check_invariants t;
  (* later-inserted items come earlier (inserted closer to base) *)
  let rec check_desc = function
    | a :: (b :: _ as rest) ->
        check bool "later insert precedes earlier" true (Om.precedes t a b);
        check_desc rest
    | _ -> ()
  in
  check_desc !items;
  check Alcotest.int "size" 5_001 (Om.size t)

(* Adversarial: always append at the end. Forces tail label growth and
   eventually full relabels. *)
let test_hammer_back () =
  let t, base = Om.create () in
  let last = ref base in
  let all = ref [ base ] in
  for _ = 1 to 5_000 do
    last := Om.insert_after t !last;
    all := !last :: !all
  done;
  Om.check_invariants t;
  let rec check_asc = function
    | a :: (b :: _ as rest) ->
        check bool "append order" true (Om.precedes t b a);
        check_asc rest
    | _ -> ()
  in
  check_asc !all

(* Insert in the middle repeatedly: splits propagate. *)
let test_hammer_middle () =
  let t, base = Om.create () in
  let pivot = Om.insert_after t base in
  let _end_ = Om.insert_after t pivot in
  for _ = 1 to 3_000 do
    ignore (Om.insert_after t pivot)
  done;
  Om.check_invariants t

(* Reference-model property: apply a random sequence of insert-after-
   position(i) operations to both the OM list and a plain OCaml list;
   all pairwise order queries must agree. *)
let prop_model =
  QCheck2.Test.make ~name:"om agrees with reference list" ~count:150
    QCheck2.Gen.(list_size (int_range 1 120) (int_bound 1000))
    (fun positions ->
      let t, base = Om.create () in
      (* model: items in order; start with base at index 0 *)
      let model = ref [| base |] in
      List.iter
        (fun raw ->
          let n = Array.length !model in
          let idx = raw mod n in
          let fresh = Om.insert_after t !model.(idx) in
          let before = Array.sub !model 0 (idx + 1) in
          let after = Array.sub !model (idx + 1) (n - idx - 1) in
          model := Array.concat [ before; [| fresh |]; after ])
        positions;
      Om.check_invariants t;
      let m = !model in
      let n = Array.length m in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let expected = i < j in
          if Om.precedes t m.(i) m.(j) <> expected then ok := false;
          let cmp = Om.compare_items t m.(i) m.(j) in
          if compare i j <> cmp && (cmp = 0) <> (i = j) then ok := false
        done
      done;
      !ok && Om.size t = n)

(* to_list must be consistent with precedes. *)
let prop_to_list_sorted =
  QCheck2.Test.make ~name:"to_list is in precedes order" ~count:100
    QCheck2.Gen.(list_size (int_range 1 80) (int_bound 1000))
    (fun positions ->
      let t, base = Om.create () in
      let items = ref [ base ] in
      List.iter
        (fun raw ->
          let anchor = List.nth !items (raw mod List.length !items) in
          items := Om.insert_after t anchor :: !items)
        positions;
      let listed = Om.to_list t in
      let rec ascending = function
        | a :: (b :: _ as rest) -> Om.precedes t a b && ascending rest
        | _ -> true
      in
      ascending listed && List.length listed = Om.size t)

(* Concurrent readers during writer churn: queries must never deadlock
   or return inconsistent answers for a pair whose order is fixed. The
   writer pattern forces relabels. *)
let test_concurrent_queries () =
  let t, base = Om.create () in
  let a = Om.insert_after t base in
  let b = Om.insert_after t a in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let reader () =
    while not (Atomic.get stop) do
      if not (Om.precedes t a b) then Atomic.incr failures;
      if Om.precedes t b a then Atomic.incr failures
    done
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  (* writer: hammer inserts between a and b *)
  for _ = 1 to 20_000 do
    ignore (Om.insert_after t a)
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  check Alcotest.int "no ordering violations under concurrency" 0
    (Atomic.get failures);
  Om.check_invariants t

let test_words_grow () =
  let t, base = Om.create () in
  let w0 = Om.words t in
  for _ = 1 to 100 do
    ignore (Om.insert_after t base)
  done;
  check bool "words grow" true (Om.words t > w0)

let qtests =
  List.map QCheck_alcotest.to_alcotest [ prop_model; prop_to_list_sorted ]

let () =
  Alcotest.run "om"
    [
      ( "list:unit",
        [
          Alcotest.test_case "base only" `Quick test_base_only;
          Alcotest.test_case "simple chain" `Quick test_simple_chain;
          Alcotest.test_case "insert between" `Quick test_insert_between;
          Alcotest.test_case "hammer front" `Quick test_hammer_front;
          Alcotest.test_case "hammer back" `Quick test_hammer_back;
          Alcotest.test_case "hammer middle" `Quick test_hammer_middle;
          Alcotest.test_case "words grow" `Quick test_words_grow;
        ] );
      ( "list:concurrency",
        [ Alcotest.test_case "queries vs inserts" `Quick test_concurrent_queries ]
      );
      ("list:properties", qtests);
    ]
