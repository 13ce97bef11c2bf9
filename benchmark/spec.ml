(* BENCHMARK.json: the workloads, the gated end-to-end metrics with the
   bound by which each may worsen, and the per-layer metrics. *)

open Report

type gated = { g_name : string; g_unit : string; better : Catalog.better; bound : float }

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : gated list;
  per_layer : (string * string) list;  (** name, unit *)
}

let better_of_string = function
  | "lower" -> Some Catalog.Lower
  | "higher" -> Some Catalog.Higher
  | _ -> None

let parse s =
  let* j = Sfr_obs.Json_min.parse s in
  let* run_seconds = field "run_seconds" as_int j in
  let* ws = field "workloads" as_arr j in
  let* e2e = field "end_to_end" as_arr j in
  let* layers = field "per_layer" as_arr j in
  let* workloads = all_ok (field "name" as_str) ws in
  let* end_to_end =
    all_ok
      (fun m ->
        let* g_name = field "name" as_str m in
        let* g_unit = field "unit" as_str m in
        let* better = field "better" (fun b -> Option.bind (as_str b) better_of_string) m in
        let* bound = field "bound" as_num m in
        Ok { g_name; g_unit; better; bound })
      e2e
  in
  let* per_layer =
    all_ok
      (fun m ->
        let* name = field "name" as_str m in
        let* unit_ = field "unit" as_str m in
        Ok (name, unit_))
      layers
  in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (parse s)
  | exception Sys_error e -> Error e
