(* Paged find-or-create table with lock-free lookups.

   The directory is an immutable-once-published window { base; pages }:
   pages.(i) is the page of page number base + i, or the shared [absent]
   page (all [dummy]) when that page does not exist yet. Every mutation
   happens under [mu]: filling a cell slot or an absent directory slot is
   a single in-place store that racy readers see either before (dummy /
   absent: they take the slow path, which re-reads under [mu]) or after;
   growing the window copies page pointers into a fresh snapshot and
   publishes it with one atomic store. Pages are never copied or moved,
   so a cell's identity is stable across growth.

   Growth is toward the miss and at least doubles, so covering a span of
   n pages copies O(n) pointers in total whichever direction it is
   walked. A page that would stretch the window past
   [max min_span (8 * npages)] slots lives in [overflow] instead, where
   its lookups take the slow path until a later growth covers it and
   moves it into the directory. *)

let page_bits = 6
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* 2^16 locations: the window's span floor, in pages *)
let min_span = 1 lsl (16 - page_bits)

type 'a dir = { base : int; pages : 'a array array }

type 'a t = {
  dir : 'a dir Atomic.t;
  mu : Mutex.t;
  dummy : 'a;
  absent : 'a array; (* every empty directory slot; never written *)
  make : unit -> 'a;
  overflow : (int, 'a array) Hashtbl.t; (* guarded by mu *)
  mutable npages : int; (* guarded by mu *)
  mutable ncells : int; (* guarded by mu *)
}

let create ~dummy make =
  {
    dir = Atomic.make { base = 0; pages = [||] };
    mu = Mutex.create ();
    dummy;
    absent = Array.make page_size dummy;
    make;
    overflow = Hashtbl.create 8;
    npages = 0;
    ncells = 0;
  }

(* [d] grown toward page [pn], or [None] if covering [pn] would break
   the span bound. Overflow pages the new window covers move into it, so
   the caller must publish the result. Call with [mu] held. *)
let grown t d pn =
  let len = Array.length d.pages in
  let lo, hi = if len = 0 then (pn, pn + 1) else (min d.base pn, max (d.base + len) (pn + 1)) in
  let limit = max min_span (8 * t.npages) in
  if hi - lo > limit then None
  else begin
    let span = min limit (max (hi - lo) (2 * len)) in
    let base = if len > 0 && pn < d.base then hi - span else lo in
    let pages = Array.make span t.absent in
    if len > 0 then Array.blit d.pages 0 pages (d.base - base) len;
    let covered =
      Hashtbl.fold
        (fun pn' page acc -> if pn' >= base && pn' < base + span then (pn', page) :: acc else acc)
        t.overflow []
    in
    List.iter
      (fun (pn', page) ->
        pages.(pn' - base) <- page;
        Hashtbl.remove t.overflow pn')
      covered;
    Some { base; pages }
  end

(* The page of page number [pn], created if missing. Call with [mu] held. *)
let page_locked t pn =
  let d = Atomic.get t.dir in
  let i = pn - d.base in
  let in_window = i >= 0 && i < Array.length d.pages in
  if in_window && d.pages.(i) != t.absent then d.pages.(i)
  else
    match Hashtbl.find_opt t.overflow pn with
    | Some page -> page
    | None ->
        let page = Array.make page_size t.dummy in
        t.npages <- t.npages + 1;
        (if in_window then d.pages.(i) <- page
         else
           match grown t d pn with
           | Some d' ->
               d'.pages.(pn - d'.base) <- page;
               Atomic.set t.dir d'
           | None -> Hashtbl.replace t.overflow pn page);
        page

let get_slow t loc =
  Mutex.protect t.mu (fun () ->
      let page = page_locked t (loc asr page_bits) in
      let j = loc land page_mask in
      let c = page.(j) in
      if c != t.dummy then c
      else begin
        let c = t.make () in
        page.(j) <- c;
        t.ncells <- t.ncells + 1;
        c
      end)

let get t loc =
  let d = Atomic.get t.dir in
  let i = (loc asr page_bits) - d.base in
  if i >= 0 && i < Array.length d.pages then begin
    let c = Array.unsafe_get (Array.unsafe_get d.pages i) (loc land page_mask) in
    if c != t.dummy then c else get_slow t loc
  end
  else get_slow t loc

let length t = Mutex.protect t.mu (fun () -> t.ncells)

let fold f init t =
  Mutex.protect t.mu (fun () ->
      let fold_page acc page =
        if page == t.absent then acc
        else Array.fold_left (fun acc c -> if c != t.dummy then f acc c else acc) acc page
      in
      let acc = Array.fold_left fold_page init (Atomic.get t.dir).pages in
      Hashtbl.fold (fun _ page acc -> fold_page acc page) t.overflow acc)

let overflow_pages t = Mutex.protect t.mu (fun () -> Hashtbl.length t.overflow)

let words t =
  Mutex.protect t.mu (fun () ->
      let buckets = (Hashtbl.stats t.overflow).Hashtbl.num_buckets in
      (* record, directory snapshot, pages (absent included), overflow
         table with its buckets and one 4-word binding per page *)
      9 + 3
      + (1 + Array.length (Atomic.get t.dir).pages)
      + ((t.npages + 1) * (1 + page_size))
      + (5 + 1 + buckets)
      + (4 * Hashtbl.length t.overflow))
