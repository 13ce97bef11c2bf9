module Bitset = Sfr_support.Bitset
module Metrics = Sfr_obs.Metrics

(* Observability: bitmap-word growth across all engines in the process —
   the live/total Atomics below stay per-engine for Figure 5. *)
let m_allocs = Metrics.counter "reach.table.allocs"
let m_alloc_words = Metrics.counter "reach.table.alloc_words"

type backend = Bitmap | Hashed

type repr = Bits of Bitset.t | Hash of (int, unit) Hashtbl.t

type t = {
  which : backend;
  allocs : int Atomic.t;
  live : int Atomic.t; (* words *)
  peak : int Atomic.t;
  total : int Atomic.t; (* cumulative words ever allocated or grown *)
  next_id : int Atomic.t;
  mutable empty_table : table option;
}

and table = { repr : repr; rc : int Atomic.t; tid : int; eng : t }
(* [tid] is a process-unique identity: physically equal tables (and only
   those) share it, so merge can dedup its inputs with one sort instead
   of O(n²) pointer scans. *)

(* -- representation helpers ------------------------------------------- *)

let repr_words = function
  | Bits b -> Bitset.words b + 4
  | Hash h ->
      let s = Hashtbl.stats h in
      s.Hashtbl.num_buckets + (3 * s.Hashtbl.num_bindings) + 6

let repr_mem r i =
  match r with Bits b -> Bitset.mem b i | Hash h -> Hashtbl.mem h i

let repr_iter f = function
  | Bits b -> Bitset.iter f b
  | Hash h -> Hashtbl.iter (fun i () -> f i) h

let repr_cardinal = function
  | Bits b -> Bitset.cardinal b
  | Hash h -> Hashtbl.length h

let repr_subset a b =
  match a with
  | Bits ba -> (
      match b with
      | Bits bb -> Bitset.subset ba bb
      | Hash _ ->
          let ok = ref true in
          Bitset.iter (fun i -> if not (repr_mem b i) then ok := false) ba;
          !ok)
  | Hash ha ->
      let ok = ref true in
      Hashtbl.iter (fun i () -> if not (repr_mem b i) then ok := false) ha;
      !ok

let repr_fresh which =
  match which with
  | Bitmap -> Bits (Bitset.create ())
  | Hashed -> Hash (Hashtbl.create 8)

(* Fresh copies sized to their members: a bitmap's window spans exactly
   the words its members occupy. *)
let repr_with_added r i =
  match r with
  | Bits b -> Bits (Bitset.with_added b i)
  | Hash h ->
      let h = Hashtbl.copy h in
      Hashtbl.replace h i ();
      Hash h

let repr_union best others =
  match best with
  | Bits b ->
      Bits
        (Bitset.union
           (b :: List.map (function Bits x -> x | Hash _ -> assert false) others))
  | Hash h ->
      let h = Hashtbl.copy h in
      List.iter (repr_iter (fun i -> Hashtbl.replace h i ())) others;
      Hash h

(* -- accounting --------------------------------------------------------- *)

let bump_peak eng =
  let live = Atomic.get eng.live in
  let rec loop () =
    let p = Atomic.get eng.peak in
    if live > p && not (Atomic.compare_and_set eng.peak p live) then loop ()
  in
  loop ()

let account_alloc eng tbl =
  Atomic.incr eng.allocs;
  let w = repr_words tbl.repr in
  Metrics.incr m_allocs;
  Metrics.add m_alloc_words w;
  ignore (Atomic.fetch_and_add eng.live w);
  ignore (Atomic.fetch_and_add eng.total w);
  bump_peak eng

let account_free eng tbl =
  ignore (Atomic.fetch_and_add eng.live (-repr_words tbl.repr))

(* -- API ---------------------------------------------------------------- *)

let alloc_table eng repr =
  let tbl =
    { repr; rc = Atomic.make 1; tid = Atomic.fetch_and_add eng.next_id 1; eng }
  in
  account_alloc eng tbl;
  tbl

let create which =
  let eng =
    {
      which;
      allocs = Atomic.make 0;
      live = Atomic.make 0;
      peak = Atomic.make 0;
      total = Atomic.make 0;
      next_id = Atomic.make 0;
      empty_table = None;
    }
  in
  (* the canonical empty table: the engine pins one reference forever *)
  eng.empty_table <- Some (alloc_table eng (repr_fresh which));
  eng

let backend eng = eng.which

let share tbl =
  Atomic.incr tbl.rc;
  tbl

let empty eng =
  match eng.empty_table with
  | Some tbl -> share tbl
  | None -> assert false

let release tbl =
  let prev = Atomic.fetch_and_add tbl.rc (-1) in
  if prev = 1 then account_free tbl.eng tbl

let mem tbl i = repr_mem tbl.repr i

(* Tables are immutable once published: a strand state handed to the
   access history (or collected by a client) may outlive its reference,
   and gp(v) is a fixed per-node set in the paper's model — so additions
   always copy. At most one copy per get plus the cp copy per create:
   within the O(k^2) construction budget of Lemma 3.12. *)
let with_added eng tbl i =
  if repr_mem tbl.repr i then tbl
  else begin
    let repr = repr_with_added tbl.repr i in
    release tbl;
    alloc_table eng repr
  end

let merge eng primary others =
  let inputs = primary :: others in
  (* collapse physically-equal inputs (a strand and its child may share a
     table); each duplicate surrenders its reference. Table identities
     order the inputs, so one sort + one adjacent-pairs pass replaces the
     O(n²) [List.memq] scan. *)
  let uniq =
    match others with
    | [] -> inputs
    | _ ->
        let sorted =
          List.stable_sort (fun a b -> compare a.tid b.tid) inputs
        in
        let rec dedup = function
          | a :: (b :: _ as rest) when a == b ->
              release a;
              dedup rest
          | a :: rest -> a :: dedup rest
          | [] -> []
        in
        dedup sorted
  in
  match uniq with
  | [] -> assert false
  | [ single ] -> single
  | _ ->
      (* a candidate that subsumes all other inputs avoids an allocation
         (the paper's merge-only-when-necessary rule); only the largest
         can, and cardinalities are cached, so picking it is O(inputs) *)
      let best =
        List.fold_left
          (fun acc x ->
            if repr_cardinal x.repr > repr_cardinal acc.repr then x else acc)
          (List.hd uniq) (List.tl uniq)
      in
      let subsumes cand =
        List.for_all (fun x -> x == cand || repr_subset x.repr cand.repr) uniq
      in
      if subsumes best then begin
        List.iter (fun x -> if x != best then release x) uniq;
        best
      end
      else begin
        let repr =
          repr_union best.repr
            (List.filter_map (fun x -> if x != best then Some x.repr else None) uniq)
        in
        List.iter release uniq;
        alloc_table eng repr
      end

let cardinal tbl = repr_cardinal tbl.repr

let elements tbl =
  let acc = ref [] in
  repr_iter (fun i -> acc := i :: !acc) tbl.repr;
  List.sort compare !acc

let allocations eng = Atomic.get eng.allocs
let live_words eng = Atomic.get eng.live
let peak_words eng = Atomic.get eng.peak
let total_words eng = Atomic.get eng.total
