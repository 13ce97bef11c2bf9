(* [sfbench agree A.json B.json]: do two result files agree, for every
   workload and gated metric, within the bounds BENCHMARK.json fixes? Two
   runs of one commit must; a run of a change that disagrees with its
   parent's run has moved that metric by more than the bound. *)

type verdict = {
  workload : string;
  metric : string;
  unit_ : string;
  a : float option;
  b : float option;
  bound : float;
  ok : bool;
}

let failed_share (w : Report.workload) =
  float_of_int w.Report.failed /. float_of_int (max 1 w.Report.attempted)

let untraced ws name =
  List.find_opt (fun (w : Report.workload) -> w.Report.workload = name && not w.Report.traced) ws

let compare (spec : Spec.t) ~a ~b =
  List.concat_map
    (fun wname ->
      let wa = untraced a wname and wb = untraced b wname in
      let value w name = Option.bind w (fun w -> Option.map Report.value (Report.find w name)) in
      let metrics =
        List.map
          (fun (g : Spec.gated) ->
            let va = value wa g.Spec.g_name and vb = value wb g.Spec.g_name in
            let ok =
              match (va, vb) with
              | Some x, Some y -> x <> 0.0 && Float.abs ((y -. x) /. x) <= g.Spec.bound
              | _ -> false
            in
            { workload = wname; metric = g.Spec.g_name; unit_ = g.Spec.g_unit; a = va; b = vb;
              bound = g.Spec.bound; ok })
          spec.Spec.end_to_end
      in
      (* the failed share may not rise *)
      let fa = Option.map failed_share wa and fb = Option.map failed_share wb in
      let failed =
        { workload = wname; metric = "failed_share"; unit_ = "ratio"; a = fa; b = fb; bound = 0.0;
          ok = (match (fa, fb) with Some x, Some y -> y <= x | _ -> false) }
      in
      metrics @ [ failed ])
    spec.Spec.workloads

let pp ppf vs =
  let opt = function Some v -> Printf.sprintf "%.6g" v | None -> "missing" in
  Format.fprintf ppf "%-14s %-18s %-9s %14s %14s %9s %7s  %s@." "workload" "metric" "unit" "A value"
    "B value" "change" "bound" "verdict";
  List.iter
    (fun v ->
      let change =
        match (v.a, v.b) with
        | Some x, Some y when x <> 0.0 -> Printf.sprintf "%+.1f%%" ((y -. x) /. Float.abs x *. 100.0)
        | _ -> "-"
      in
      Format.fprintf ppf "%-14s %-18s %-9s %14s %14s %9s %6.0f%%  %s@." v.workload v.metric v.unit_
        (opt v.a) (opt v.b) change (v.bound *. 100.0)
        (if v.ok then "agree" else "DISAGREE"))
    vs

let all_agree vs = List.for_all (fun v -> v.ok) vs
