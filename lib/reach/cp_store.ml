module Bitset = Sfr_support.Bitset
module Chunk_vec = Sfr_support.Chunk_vec
module Metrics = Sfr_obs.Metrics

(* Charged to the same registry entry as the gp tables: both are the
   reachability tables' footprint. *)
let m_allocs = Metrics.counter "reach.table.allocs"
let m_alloc_words = Metrics.counter "reach.table.alloc_words"
let m_bitmaps = Metrics.counter "reach.cp.bitmaps"

(* [Chain a]: [a.(d)] is the ancestor at depth [d], root first.
   [Bits b]: the same ancestors as a bitmap. Both are immutable once
   pushed. *)
type entry = Chain of int array | Bits of Bitset.t

type t = { vec : entry Chunk_vec.t; words : int Atomic.t }

let entry_words = function
  | Chain a -> Array.length a + 2
  | Bits b -> Bitset.words b + 4

(* The container's chunks go to the counter only: [words] is the
   per-future tables, the Figure 5 metric. *)
let create () =
  let vec = Chunk_vec.create ~on_alloc:(Metrics.add m_alloc_words) (Chain [||]) in
  ignore (Chunk_vec.push vec (Chain [||]));
  { vec; words = Atomic.make 0 }

let depth_of = function Chain a -> Array.length a | Bits b -> Bitset.cardinal b

(* The chain costs one word per ancestor; a bitmap, one word per
   [Sys.int_size] IDs up to the parent's. Pick the smaller from the
   child's own depth and parent ID, never from the parent's layout. *)
let chain_fits ~depth ~parent = depth <= (parent / Sys.int_size) + 4

(* The child's entry does not depend on its ID, so it is built outside
   the vector's lock; [push] only claims the slot. IDs rise with
   creation, so a bitmap's members in ascending order are the chain. *)
let add_child t ~parent =
  let pe = Chunk_vec.get t.vec parent in
  let d = depth_of pe + 1 in
  let e =
    if chain_fits ~depth:d ~parent then begin
      let a = Array.make d parent in
      (match pe with
      | Chain pa -> Array.blit pa 0 a 0 (d - 1)
      | Bits pb -> ignore (Bitset.fold (fun f i -> a.(i) <- f; i + 1) pb 0));
      Chain a
    end
    else begin
      Metrics.incr m_bitmaps;
      match pe with
      | Bits pb -> Bits (Bitset.with_added pb parent)
      | Chain pa ->
          let b = Bitset.create ~capacity:(parent + 1) () in
          Array.iter (Bitset.add b) pa;
          Bitset.add b parent;
          Bits b
    end
  in
  let w = entry_words e in
  Metrics.incr m_allocs;
  Metrics.add m_alloc_words w;
  ignore (Atomic.fetch_and_add t.words w);
  Chunk_vec.push t.vec e

let mem t g ~fid ~depth =
  match Chunk_vec.get t.vec g with
  | Chain a -> depth < Array.length a && a.(depth) = fid
  | Bits b -> Bitset.mem b fid

let words t = Atomic.get t.words
