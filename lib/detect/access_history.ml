module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof
module Chaos = Sfr_chaos.Chaos

(* Observability: the paper's conclusion flags access-history
   synchronization as the dominant full-detection cost; these counters
   let the ablations see lock contention and reader-set churn directly.
   The prof timers cover the whole read-insert / write-evict critical
   path (lock wait, race checks, reader churn) per access.
   [history.write.fastpath] counts writes absorbed by the last-writer
   filter — the accesses that never touched a lock or an atomic. *)
let m_lock_acquire = Metrics.counter "history.lock.acquire"
let m_lock_contended = Metrics.counter "history.lock.contended"
let m_cas_retry = Metrics.counter "history.cas.retry"
let m_readers_insert = Metrics.counter "history.readers.insert"
let m_readers_evict = Metrics.counter "history.readers.evict"
let m_write_fast = Metrics.counter "history.write.fastpath"
let t_read = Prof.timer "prof.history.read.ns"
let t_write = Prof.timer "prof.history.write.ns"

type 'a policy =
  | Keep_all
  | Lr_per_future of {
      future_of : 'a -> int;
      more_left : 'a -> 'a -> bool;
      more_right : 'a -> 'a -> bool;
      covers : 'a -> 'a -> bool;
    }

type sync_mode = [ `Mutex | `Unsynchronized | `Lockfree ]

(* Fibonacci multiplicative mixing for stripe selection.
   Raw low bits ([loc land (stripes-1)]) alias every strided access
   pattern whose stride shares a factor with the stripe count — a
   power-of-two matrix row maps an entire column onto ONE stripe and
   serializes all domains on its lock. Multiplying by the golden-ratio
   constant diffuses every input bit into the high bits, which the
   selector then takes. OCaml ints are 63-bit, so we use the 64-bit
   constant 0x9E37_79B9_7F4A_7C15 reduced mod 2^63 (multiplication only
   ever sees residues mod 2^63 anyway): 0x1E37_79B9_7F4A_7C15. *)
let fib_mix = 0x1E37_79B9_7F4A_7C15

let mix_bits loc shift = (loc * fib_mix) lsr (Sys.int_size - shift)

(* -- cells ----------------------------------------------------------------- *)

(* Every mode keeps its cells in one {!Sfr_support.Loc_table}: a paged
   find-or-create table whose lookups take no lock and allocate nothing.
   The modes differ only in how a cell is synchronized — a striped mutex
   around a mutable cell, nothing, or atomics inside the cell. *)
module Loc_table = Sfr_support.Loc_table

(* Reader storage, per mutable cell:
   - [R_inline]: first [inline_cap] readers in a mutable array reused
     across write epochs — the common case allocates nothing per read —
     spilling to a list only past that. Iteration is newest first (spill,
     then slots), the same order as the [`Lockfree] cell's reader stack,
     so first-race attribution does not depend on the mode.
   - [R_lr]: leftmost/rightmost per future (the 2k-bound policy). *)
let inline_cap = 8

type 'a readers =
  | R_inline of 'a inline
  | R_lr of (int, 'a * 'a) Hashtbl.t (* future id -> (leftmost, rightmost) *)

and 'a inline = {
  mutable slots : 'a array; (* [||] until the first reader arrives *)
  mutable n : int; (* live prefix of [slots] *)
  mutable spill : 'a list; (* readers past [inline_cap], newest first *)
}

type 'a cell = {
  mutable writer : 'a; (* [none] until the first write: no box to install *)
  mutable readers : 'a readers;
  mutable nreaders : int;
}

(* [`Lockfree] cell: the writer and a Treiber stack of readers *)
type 'a lf_cell = {
  lf_writer : 'a Atomic.t;
  lf_readers : 'a list Atomic.t;
  lf_count : int Atomic.t; (* approximate reader count *)
}

(* 64 stripe locks under [`Mutex] *)
let stripe_log = 6

(* [stripes] is [||] under [`Unsynchronized]: no lock is taken *)
type 'a repr =
  | Striped of { cells : 'a cell Loc_table.t; stripes : Mutex.t array }
  | Lf of 'a lf_cell Loc_table.t

type 'a t = {
  policy : 'a policy;
  repr : 'a repr;
  none : 'a;
  check : 'a -> 'a -> int -> Race.kind -> unit;
  max_readers : int Atomic.t;
}

let empty_readers = function
  | Keep_all -> R_inline { slots = [||]; n = 0; spill = [] }
  | Lr_per_future _ -> R_lr (Hashtbl.create 4)

let create ~(sync : sync_mode) ~none ~check policy =
  let repr =
    match (sync, policy) with
    | ((`Mutex | `Unsynchronized) as s), _ ->
        let new_cell () = { writer = none; readers = empty_readers policy; nreaders = 0 } in
        Striped
          {
            cells = Loc_table.create ~dummy:(new_cell ()) new_cell;
            stripes =
              (if s = `Mutex then Array.init (1 lsl stripe_log) (fun _ -> Mutex.create ())
               else [||]);
          }
    | `Lockfree, Keep_all ->
        let new_cell () =
          { lf_writer = Atomic.make none; lf_readers = Atomic.make []; lf_count = Atomic.make 0 }
        in
        Lf (Loc_table.create ~dummy:(new_cell ()) new_cell)
    | `Lockfree, Lr_per_future _ ->
        Detect_error.unsupported ~detector:"Access_history"
          ~feature:"`Lockfree with Lr_per_future (requires Keep_all)"
  in
  { policy; repr; none; check; max_readers = Atomic.make 0 }

(* The access paths below are top-level functions of their arguments,
   not local closures, so an access allocates nothing but a new
   reader's cons (under [`Lockfree], or past the inline slots). *)
let rec note_high_water t n =
  let m = Atomic.get t.max_readers in
  if n > m && not (Atomic.compare_and_set t.max_readers m n) then note_high_water t n

(* [check] every reader of [rs] against the writing [cur] *)
let rec check_readers t cur loc = function
  | [] -> ()
  | r :: rs ->
      t.check r cur loc Race.Read_write;
      check_readers t cur loc rs

(* -- striped paths ------------------------------------------------------ *)

(* is [accessor] the newest stored reader? (allocation-free) *)
let inline_last_is r accessor =
  match r.spill with
  | x :: _ -> x == accessor
  | [] -> r.n > 0 && r.slots.(r.n - 1) == accessor

let inline_push r accessor =
  if r.n < Array.length r.slots then begin
    r.slots.(r.n) <- accessor;
    r.n <- r.n + 1
  end
  else if Array.length r.slots = 0 then begin
    (* first reader ever at this cell: the reader itself seeds the array,
       so no dummy element is needed and later inserts allocate nothing *)
    r.slots <- Array.make inline_cap accessor;
    r.n <- 1
  end
  else r.spill <- accessor :: r.spill

(* [loc]'s stripe critical section, when [stripes] is non-empty *)
let lock stripes loc =
  if Array.length stripes > 0 then begin
    let mu = stripes.(mix_bits loc stripe_log) in
    (* perturb-only site: widens the window between an accessor reaching
       the history and publishing into it *)
    Chaos.point Chaos.Lock_acquire;
    Metrics.incr m_lock_acquire;
    if not (Mutex.try_lock mu) then begin
      Metrics.incr m_lock_contended;
      Mutex.lock mu
    end
  end

let unlock stripes loc =
  if Array.length stripes > 0 then Mutex.unlock stripes.(mix_bits loc stripe_log)

let striped_read t cells stripes ~loc ~accessor =
  let cell = Loc_table.get cells loc in
  lock stripes loc;
  if cell.writer != t.none then t.check cell.writer accessor loc Race.Write_read;
  (match (t.policy, cell.readers) with
  | Keep_all, R_inline r ->
      (* collapse consecutive reads by the same strand *)
      if not (inline_last_is r accessor) then begin
        inline_push r accessor;
        cell.nreaders <- cell.nreaders + 1;
        Metrics.incr m_readers_insert
      end
  | Lr_per_future { future_of; more_left; more_right; covers }, R_lr tbl -> (
      let f = future_of accessor in
      match Hashtbl.find_opt tbl f with
      | None ->
          Hashtbl.add tbl f (accessor, accessor);
          cell.nreaders <- cell.nreaders + 2;
          Metrics.add m_readers_insert 2
      | Some (l, r) ->
          if covers l accessor && covers r accessor then begin
            (* both stored readers precede the new one: it supersedes *)
            Hashtbl.replace tbl f (accessor, accessor);
            Metrics.add m_readers_evict (if l == r then 1 else 2);
            Metrics.add m_readers_insert 2
          end
          else begin
            let l' = if more_left accessor l then accessor else l in
            let r' = if more_right accessor r then accessor else r in
            if l' != l || r' != r then begin
              let changed = (if l' != l then 1 else 0) + if r' != r then 1 else 0 in
              Metrics.add m_readers_evict changed;
              Metrics.add m_readers_insert changed
            end;
            Hashtbl.replace tbl f (l', r')
          end)
  | Keep_all, R_lr _ | Lr_per_future _, R_inline _ -> assert false);
  note_high_water t cell.nreaders;
  unlock stripes loc

let striped_write t cells stripes ~loc ~accessor =
  let cell = Loc_table.get cells loc in
  if cell.writer == accessor && cell.nreaders = 0 then begin
    (* last-writer filter: this strand is already the installed writer
       and no reader registered since — re-installing would evict
       nothing and change nothing. The cell is read without the stripe
       lock (see the .mli for why a stale read is sound). Run the
       writer-vs-writer check anyway (the query count must not depend on
       the filter), then skip lock and evict. *)
    Metrics.incr m_write_fast;
    t.check accessor accessor loc Race.Write_write
  end
  else begin
    lock stripes loc;
    if cell.writer != t.none then t.check cell.writer accessor loc Race.Write_write;
    (match cell.readers with
    | R_inline r ->
        check_readers t accessor loc r.spill;
        for i = r.n - 1 downto 0 do
          t.check r.slots.(i) accessor loc Race.Read_write
        done;
        (* reset in place: the slots array is reused *)
        r.n <- 0;
        r.spill <- []
    | R_lr tbl ->
        Hashtbl.iter
          (fun _ (l, r) ->
            t.check l accessor loc Race.Read_write;
            if r != l then t.check r accessor loc Race.Read_write)
          tbl;
        cell.readers <- empty_readers t.policy);
    Metrics.add m_readers_evict cell.nreaders;
    cell.nreaders <- 0;
    cell.writer <- accessor;
    unlock stripes loc
  end

(* -- lock-free paths ----------------------------------------------------- *)

(* push [accessor] onto [cell]'s reader stack unless it is already the
   newest reader *)
let rec lf_push t cell accessor =
  let rs = Atomic.get cell.lf_readers in
  let same_strand = match rs with r :: _ -> r == accessor | [] -> false in
  if not same_strand then
    if Atomic.compare_and_set cell.lf_readers rs (accessor :: rs) then begin
      Metrics.incr m_readers_insert;
      note_high_water t (1 + Atomic.fetch_and_add cell.lf_count 1)
    end
    else begin
      Metrics.incr m_cas_retry;
      lf_push t cell accessor
    end

let lf_read t cells ~loc ~accessor =
  let cell = Loc_table.get cells loc in
  Chaos.point Chaos.Lock_acquire;
  (* publish the reader first, then validate against the current writer:
     a concurrent writer either drains this reader or was installed
     before our validation read (see the .mli completeness note) *)
  lf_push t cell accessor;
  let w = Atomic.get cell.lf_writer in
  if w != t.none then t.check w accessor loc Race.Write_read

let lf_write t cells ~loc ~accessor =
  let cell = Loc_table.get cells loc in
  Chaos.point Chaos.Lock_acquire;
  if Atomic.get cell.lf_writer == accessor && Atomic.get cell.lf_readers == [] then begin
    (* last-writer filter, lock-free flavor: skip both exchanges — the
       reader stack stays untouched, so concurrent readers don't retry
       their CAS against this write's drain. The writer-vs-writer check
       still runs, so the query count does not depend on the filter. *)
    Metrics.incr m_write_fast;
    t.check accessor accessor loc Race.Write_write
  end
  else begin
    let w = Atomic.exchange cell.lf_writer accessor in
    if w != t.none then t.check w accessor loc Race.Write_write;
    let rs = Atomic.exchange cell.lf_readers [] in
    Atomic.set cell.lf_count 0;
    Metrics.add m_readers_evict (List.length rs);
    check_readers t accessor loc rs
  end

(* -- dispatch ------------------------------------------------------------ *)

let on_read t ~loc ~accessor =
  let t0 = Prof.start () in
  (match t.repr with
  | Striped { cells; stripes } -> striped_read t cells stripes ~loc ~accessor
  | Lf cells -> lf_read t cells ~loc ~accessor);
  Prof.stop t_read t0

let on_write t ~loc ~accessor =
  let t0 = Prof.start () in
  (match t.repr with
  | Striped { cells; stripes } -> striped_write t cells stripes ~loc ~accessor
  | Lf cells -> lf_write t cells ~loc ~accessor);
  Prof.stop t_write t0

(* -- statistics ----------------------------------------------------------- *)

let locations_tracked t =
  match t.repr with
  | Striped { cells; _ } -> Loc_table.length cells
  | Lf cells -> Loc_table.length cells

let readers_stored t =
  match t.repr with
  | Striped { cells; _ } -> Loc_table.fold (fun acc c -> acc + c.nreaders) 0 cells
  | Lf cells ->
      Loc_table.fold (fun acc c -> acc + List.length (Atomic.get c.lf_readers)) 0 cells

let max_readers_at_once t = Atomic.get t.max_readers

let words t =
  match t.repr with
  | Striped { cells; stripes } ->
      Loc_table.fold
        (fun acc c ->
          acc + 4
          +
          match c.readers with
          | R_inline r -> 6 + Array.length r.slots + (3 * List.length r.spill)
          | R_lr tbl -> 5 * Hashtbl.length tbl)
        (Loc_table.words cells + (3 * Array.length stripes))
        cells
  | Lf cells ->
      Loc_table.fold
        (fun acc c -> acc + 10 + (3 * List.length (Atomic.get c.lf_readers)))
        (Loc_table.words cells) cells
