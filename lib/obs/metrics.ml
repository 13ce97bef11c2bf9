(* Counters are arrays of per-domain slots of plain mutable ints. A slot
   is only ever written by domains whose ID is congruent to its index
   modulo [nslots]; domain IDs are consecutive, so under fewer than
   [nslots] domains each slot has a unique writer and merging at snapshot
   time is exact. Each slot is its own 2-word heap block, but the blocks
   of one counter sit next to each other, 16 bytes apart, so four slots
   share a 64-byte cache line: domains whose IDs are adjacent still
   bounce that line on their hot increments (padding each slot to a line
   would cost about 0.6 MB per process for 128 slots of every counter).
   Snapshot reads are unsynchronized (a torn *count* is impossible for
   an immediate int; a slightly stale one is acceptable for reporting). *)

let nslots = 128
let slot_mask = nslots - 1

type slot = { mutable v : int }

type kind = Sum | Max

type counter = { c_kind : kind; c_slots : slot array }

type histogram = {
  h_slots : int array array;
  h_sums : slot array;
  h_counts : slot array; (* total observations, so count h skips buckets *)
}

let nbuckets = 64

type metric = Counter of counter | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()
let on = Atomic.make true

let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let slot_index () = (Domain.self () :> int) land slot_mask

(* -- slot-collision accounting ------------------------------------------ *)

(* Two concurrently live domains whose IDs are congruent mod [nslots]
   write the same slot, and their unsynchronized increments can lose
   counts. Cooperating domain pools (the parallel executor's workers, the
   telemetry sampler, the serve pool, sharded replay's shard domains)
   bracket their lifetime with [domain_enter]/[domain_exit]; a slot whose
   live count exceeds 1 is a real collision and is counted here — once
   per offending enter, on the cold (per-domain-lifetime) path, so an
   atomic is fine. *)
let live_in_slot = Array.init nslots (fun _ -> Atomic.make 0)
let collisions = Atomic.make 0

let domain_enter () =
  if Atomic.fetch_and_add live_in_slot.(slot_index ()) 1 >= 1 then
    Atomic.incr collisions

let domain_exit () = Atomic.decr live_in_slot.(slot_index ())

let slot_collisions () = Atomic.get collisions

let counter ?(kind = `Sum) name =
  let kind = match kind with `Sum -> Sum | `Max -> Max in
  Mutex.lock registry_mu;
  let c =
    match Hashtbl.find_opt registry name with
    | Some (Counter c) when c.c_kind = kind -> c
    | Some _ ->
        Mutex.unlock registry_mu;
        invalid_arg
          (Printf.sprintf "Metrics.counter: %S already registered differently"
             name)
    | None ->
        let c = { c_kind = kind; c_slots = Array.init nslots (fun _ -> { v = 0 }) } in
        Hashtbl.add registry name (Counter c);
        c
  in
  Mutex.unlock registry_mu;
  c

let add c n =
  if Atomic.get on then begin
    let slot = c.c_slots.(slot_index ()) in
    match c.c_kind with
    | Sum -> slot.v <- slot.v + n
    | Max -> if n > slot.v then slot.v <- n
  end

let incr c = add c 1

let merge_counter c =
  match c.c_kind with
  | Sum -> Array.fold_left (fun acc s -> acc + s.v) 0 c.c_slots
  | Max -> Array.fold_left (fun acc s -> max acc s.v) 0 c.c_slots

let value = merge_counter

let histogram name =
  Mutex.lock registry_mu;
  let h =
    match Hashtbl.find_opt registry name with
    | Some (Histogram h) -> h
    | Some (Counter _) ->
        Mutex.unlock registry_mu;
        invalid_arg
          (Printf.sprintf "Metrics.histogram: %S already registered as a counter"
             name)
    | None ->
        let h =
          {
            h_slots = Array.init nslots (fun _ -> Array.make nbuckets 0);
            h_sums = Array.init nslots (fun _ -> { v = 0 });
            h_counts = Array.init nslots (fun _ -> { v = 0 });
          }
        in
        Hashtbl.add registry name (Histogram h);
        h
  in
  Mutex.unlock registry_mu;
  h

let bucket_index v =
  if v <= 1 then 0
  else begin
    (* smallest i with v <= 2^i; the bound must not be doubled past
       2^61 — 2^62 wraps to min_int on 63-bit ints — and any v beyond
       2^61 fits the next bucket anyway (max_int = 2^62 - 1) *)
    let rec go i bound =
      if i >= nbuckets - 1 || bound >= v then i
      else if bound > max_int / 2 then i + 1
      else go (i + 1) (bound * 2)
    in
    go 0 1
  end

let bucket_bound i = if i >= nbuckets - 1 then max_int else 1 lsl i

let observe h v =
  if Atomic.get on then begin
    let s = slot_index () in
    let row = h.h_slots.(s) in
    let i = bucket_index v in
    row.(i) <- row.(i) + 1;
    let sum = h.h_sums.(s) in
    sum.v <- sum.v + v;
    let cnt = h.h_counts.(s) in
    cnt.v <- cnt.v + 1
  end

let merge_buckets h =
  let acc = Array.make nbuckets 0 in
  Array.iter (fun row -> Array.iteri (fun i n -> acc.(i) <- acc.(i) + n) row) h.h_slots;
  acc

let buckets h =
  let acc = merge_buckets h in
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    if acc.(i) > 0 then out := (bucket_bound i, acc.(i)) :: !out
  done;
  !out

let sum h = Array.fold_left (fun acc s -> acc + s.v) 0 h.h_sums
let count h = Array.fold_left (fun acc s -> acc + s.v) 0 h.h_counts

(* -- percentile estimates ----------------------------------------------- *)

(* Bucketed data only bounds a percentile: report the inclusive upper
   bound of the bucket where the cumulative count first reaches
   ceil(q * total). *)
let percentile_of_buckets bs q =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 bs in
  if total = 0 then 0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = int_of_float (ceil (q *. float_of_int total)) in
    let rank = max 1 rank in
    let rec go cum = function
      | [] -> 0
      | [ (ub, _) ] -> ub
      | (ub, n) :: rest -> if cum + n >= rank then ub else go (cum + n) rest
    in
    go 0 bs
  end

type histogram_summary = {
  h_name : string;
  h_count : int;
  h_sum : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

let summarize name h =
  let bs = buckets h in
  {
    h_name = name;
    h_count = List.fold_left (fun acc (_, n) -> acc + n) 0 bs;
    h_sum = sum h;
    p50 = percentile_of_buckets bs 0.50;
    p90 = percentile_of_buckets bs 0.90;
    p99 = percentile_of_buckets bs 0.99;
  }

let histogram_summaries () =
  Mutex.lock registry_mu;
  let out =
    Hashtbl.fold
      (fun name m acc ->
        match m with
        | Counter _ -> acc
        | Histogram h ->
            let s = summarize name h in
            if s.h_count > 0 then s :: acc else acc)
      registry []
  in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> String.compare a.h_name b.h_name) out

let pp_summaries ppf summaries =
  let width =
    List.fold_left (fun w s -> max w (String.length s.h_name)) 0 summaries
  in
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-*s count %-9d p50<=%-9d p90<=%-9d p99<=%s@." width
        s.h_name s.h_count s.p50 s.p90
        (if s.p99 = max_int then "inf" else string_of_int s.p99))
    summaries

(* -- snapshots ---------------------------------------------------------- *)

let snapshot_entries () =
  Mutex.lock registry_mu;
  let entries =
    Hashtbl.fold
      (fun name m acc ->
        match m with
        | Counter c -> (name, c.c_kind, merge_counter c) :: acc
        | Histogram h ->
            let bs = merge_buckets h in
            let total = Array.fold_left ( + ) 0 bs in
            let acc = (name ^ ".count", Sum, total) :: acc in
            let acc =
              if total > 0 then (name ^ ".sum", Sum, sum h) :: acc else acc
            in
            let acc = ref acc in
            Array.iteri
              (fun i n ->
                if n > 0 then
                  let label =
                    if i >= nbuckets - 1 then name ^ ".le_inf"
                    else Printf.sprintf "%s.le_%d" name (bucket_bound i)
                  in
                  acc := (label, Sum, n) :: !acc)
              bs;
            !acc)
      registry []
  in
  Mutex.unlock registry_mu;
  let entries =
    ("obs.metrics.slot_collisions", Sum, Atomic.get collisions) :: entries
  in
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) entries

let snapshot () = List.map (fun (n, _, v) -> (n, v)) (snapshot_entries ())

let since base =
  List.map
    (fun (name, kind, v) ->
      match kind with
      | Max -> (name, v)
      | Sum ->
          let b = match List.assoc_opt name base with Some b -> b | None -> 0 in
          (name, max 0 (v - b)))
    (snapshot_entries ())

let reset_all () =
  Mutex.lock registry_mu;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Array.iter (fun s -> s.v <- 0) c.c_slots
      | Histogram h ->
          Array.iter (fun row -> Array.fill row 0 nbuckets 0) h.h_slots;
          Array.iter (fun s -> s.v <- 0) h.h_sums;
          Array.iter (fun s -> s.v <- 0) h.h_counts)
    registry;
  Atomic.set collisions 0;
  Mutex.unlock registry_mu

(* -- typed export (Prometheus exposition and friends) ------------------- *)

type exported =
  | Exp_counter of string * int
  | Exp_gauge of string * int
  | Exp_histogram of {
      e_name : string;
      e_buckets : (int * int) list;
      e_count : int;
      e_sum : int;
    }

let exported_name = function
  | Exp_counter (n, _) | Exp_gauge (n, _) -> n
  | Exp_histogram { e_name; _ } -> e_name

let export () =
  Mutex.lock registry_mu;
  let out =
    Hashtbl.fold
      (fun name m acc ->
        match m with
        | Counter c -> (
            match c.c_kind with
            | Sum -> Exp_counter (name, merge_counter c) :: acc
            | Max -> Exp_gauge (name, merge_counter c) :: acc)
        | Histogram h ->
            let bs = buckets h in
            let count = List.fold_left (fun a (_, n) -> a + n) 0 bs in
            Exp_histogram
              { e_name = name; e_buckets = bs; e_count = count; e_sum = sum h }
            :: acc)
      registry []
  in
  Mutex.unlock registry_mu;
  let out =
    Exp_counter ("obs.metrics.slot_collisions", Atomic.get collisions) :: out
  in
  List.sort (fun a b -> String.compare (exported_name a) (exported_name b)) out

(* The per-tick sampler view: like [export] but without merging any
   histogram's nslots x nbuckets matrix — histograms contribute only
   their [.count] (via the per-slot count slots), so a tick costs one
   pass of plain-int slot folds and no per-bucket allocation. *)
let quick_export () =
  Mutex.lock registry_mu;
  let out =
    Hashtbl.fold
      (fun name m acc ->
        match m with
        | Counter c -> (
            match c.c_kind with
            | Sum -> (name, `Counter, merge_counter c) :: acc
            | Max -> (name, `Gauge, merge_counter c) :: acc)
        | Histogram h -> (name ^ ".count", `Counter, count h) :: acc)
      registry []
  in
  Mutex.unlock registry_mu;
  ("obs.metrics.slot_collisions", `Counter, Atomic.get collisions) :: out

let pp_table ppf entries =
  let width =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 0 entries
  in
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-*s %d@." width name v)
    entries
