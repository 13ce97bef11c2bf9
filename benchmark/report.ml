(* One workload run's results, their JSON form (the files sfbench --out
   and --trace-out write, and agree reads), the aligned text table, and
   the one-line result object a single-workload run prints last. *)

module Json = Sfr_obs.Json_min

type metric = { name : string; unit_ : string; summary : Summary.t }

type workload = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let schema = "sfbench-1"

let find w name = List.find_opt (fun m -> m.name = name) w.metrics

(* The statistic the catalog names as this metric's value. *)
let value m =
  let s = m.summary in
  match Catalog.find m.name with
  | Some { Catalog.stat = Catalog.Best; better = Some Catalog.Lower; _ } -> s.Summary.lo
  | Some { Catalog.stat = Catalog.Best; better = Some Catalog.Higher; _ } -> s.Summary.hi
  | _ -> s.Summary.median

(* Every digit, so no two measured times print alike by rounding. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"

let metric_json m =
  obj
    [
      ("name", str m.name);
      ("unit", str m.unit_);
      ("median", num m.summary.Summary.median);
      ("q1", num m.summary.Summary.q1);
      ("q3", num m.summary.Summary.q3);
      ("min", num m.summary.Summary.lo);
      ("max", num m.summary.Summary.hi);
      ("n", string_of_int m.summary.Summary.n);
    ]

let workload_json w =
  obj
    [
      ("workload", str w.workload);
      ("seed", string_of_int w.seed);
      ("traced", string_of_bool w.traced);
      ("attempted", string_of_int w.attempted);
      ("failed", string_of_int w.failed);
      ("metrics", "[\n    " ^ String.concat ",\n    " (List.map metric_json w.metrics) ^ "]");
    ]

let to_json ws =
  obj
    [
      ("schema", str schema);
      ("workloads", "[\n  " ^ String.concat ",\n  " (List.map workload_json ws) ^ "]");
    ]
  ^ "\n"

let ( let* ) = Result.bind

let field k conv j =
  match Option.bind (Json.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" k)

let as_num = function Json.Num f -> Some f | _ -> None
let as_int j = Option.map int_of_float (as_num j)
let as_str = function Json.Str s -> Some s | _ -> None
let as_bool = function Json.Bool b -> Some b | _ -> None
let as_arr = function Json.Arr l -> Some l | _ -> None

let all_ok f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let metric_of_json j =
  let* name = field "name" as_str j in
  let* unit_ = field "unit" as_str j in
  let* median = field "median" as_num j in
  let* q1 = field "q1" as_num j in
  let* q3 = field "q3" as_num j in
  let* lo = field "min" as_num j in
  let* hi = field "max" as_num j in
  let* n = field "n" as_int j in
  Ok { name; unit_; summary = { Summary.median; q1; q3; lo; hi; n } }

let workload_of_json j =
  let* workload = field "workload" as_str j in
  let* seed = field "seed" as_int j in
  let* traced = field "traced" as_bool j in
  let* attempted = field "attempted" as_int j in
  let* failed = field "failed" as_int j in
  let* ms = field "metrics" as_arr j in
  let* metrics = all_ok metric_of_json ms in
  Ok { workload; seed; traced; attempted; failed; metrics }

let of_json s =
  let* j = Json.parse s in
  let* sch = field "schema" as_str j in
  if sch <> schema then Error (Printf.sprintf "schema %S, expected %S" sch schema)
  else
    let* ws = field "workloads" as_arr j in
    all_ok workload_of_json ws

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (of_json s)
  | exception Sys_error e -> Error e

let write_file path ws = Out_channel.with_open_bin path (fun oc -> output_string oc (to_json ws))

let pp_table ppf w =
  Format.fprintf ppf "%s  seed %d  %s  ops %d attempted, %d failed@." w.workload w.seed
    (if w.traced then "traced" else "untraced")
    w.attempted w.failed;
  Format.fprintf ppf "  %-26s %-9s %13s %13s %13s %13s %4s@." "metric" "unit" "value" "median" "q1" "q3"
    "n";
  List.iter
    (fun m ->
      let s = m.summary in
      Format.fprintf ppf "  %-26s %-9s %13.6g %13.6g %13.6g %13.6g %4d@." m.name m.unit_ (value m)
        s.Summary.median s.Summary.q1 s.Summary.q3 s.Summary.n)
    w.metrics

(* The last line of a single-workload run: the values of [names], in that
   order, with the operation counts. A count or share the workload did not
   measure reads 0 — a layer it never runs; a missing time is a bug, never
   a 0. *)
let result_line w ~names =
  let value name =
    match find w name with
    | Some m -> (value m, m.unit_)
    | None ->
        let u = Catalog.unit_of name in
        if Catalog.is_time u then invalid_arg (w.workload ^ " did not measure " ^ name);
        (0.0, u)
  in
  obj
    [
      ("correct", string_of_bool (w.failed = 0));
      ("attempted", string_of_int w.attempted);
      ("failed", string_of_int w.failed);
      ( "metrics",
        obj
          (List.map
             (fun name ->
               let v, u = value name in
               (name, obj [ ("value", num v); ("unit", str u) ]))
             names) );
    ]
