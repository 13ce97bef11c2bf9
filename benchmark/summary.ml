(* Order statistics with the conventions of Python's [statistics] module
   (the default "exclusive" quantile method), so a quartile printed here
   is exactly what [statistics.quantiles(samples, n=4)] gives for the
   same samples. *)

type t = { median : float; q1 : float; q3 : float; lo : float; hi : float; n : int }

let cut ~n ~i xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Summary.cut: no samples";
  if n < 2 || i < 1 || i >= n then invalid_arg "Summary.cut: bad cut point";
  if ld = 1 then d.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
    /. float_of_int n

let median xs = cut ~n:2 ~i:1 xs
let percentile p xs = cut ~n:100 ~i:p xs

let of_samples xs =
  {
    median = median xs;
    q1 = cut ~n:4 ~i:1 xs;
    q3 = cut ~n:4 ~i:3 xs;
    lo = List.fold_left Float.min Float.infinity xs;
    hi = List.fold_left Float.max Float.neg_infinity xs;
    n = List.length xs;
  }
