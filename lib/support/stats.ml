let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
      let m = mean xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. float_of_int (List.length xs - 1))

(* Float.compare, not polymorphic compare: the latter raises no error on
   floats but orders nan unpredictably relative to IEEE comparisons; with
   Float.compare, nan sorts below every number, deterministically. The
   array sort also replaces the former O(n^2) List.nth walk. *)
let median xs =
  match Array.of_list xs with
  | [||] -> nan
  | a ->
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median absolute deviation: the robust spread companion to [median].
   Not scaled to estimate sigma (no 1.4826 factor): the raw statistic. *)
let mad = function
  | [] | [ _ ] -> 0.0
  | xs ->
      let m = median xs in
      median (List.map (fun x -> Float.abs (x -. m)) xs)

let min_max = function
  | [] -> (nan, nan)
  | x :: xs ->
      List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

let repeat_timed n f =
  if n <= 0 then invalid_arg "Stats.repeat_timed: n must be positive";
  let rec loop i times =
    let result, dt = time f in
    if i >= n then (result, List.rev (dt :: times)) else loop (i + 1) (dt :: times)
  in
  loop 1 []
