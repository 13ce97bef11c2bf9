type caps = {
  supports_parallel : bool;
  oracle_grade : bool;
  figure : bool;
}

type entry = {
  name : string;
  label : string;
  doc : string;
  make : unit -> Detector.t;
  caps : caps;
}

(* Registration order is presentation order: the harness figure tables
   iterate [all ()] filtered on [caps.figure], so built-ins below keep
   the historical MultiBags / F-Order / SF-Order column order. *)
let table : entry list ref = ref []

let find name = List.find_opt (fun e -> e.name = name) !table
let all () = !table
let names () = List.map (fun e -> e.name) !table

let register e =
  if find e.name <> None then
    invalid_arg
      (Printf.sprintf "Sfr_detect.Registry.register: duplicate detector %S"
         e.name);
  table := !table @ [ e ]

let caps_string c =
  String.concat ","
    ((if c.supports_parallel then [ "parallel" ] else [ "serial" ])
    @ if c.oracle_grade then [ "oracle" ] else [])

let listing () =
  let b = Buffer.create 256 in
  Buffer.add_string b "registered detectors (-d NAME):\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %-14s %-22s %s\n" e.name (caps_string e.caps) e.doc))
    !table;
  Buffer.contents b

let unknown name =
  Printf.sprintf "unknown detector %S\n%s" name (listing ())

(* Built-in backends. Constructed here (not via side-effect-only modules)
   so the archive linker cannot drop them: any client that links the
   registry gets the full table. *)
let () =
  register
    {
      name = "multibags";
      label = "MultiBags";
      doc = "sequential MultiBags baseline (depth-first execution only)";
      make = (fun () -> Multibags.make ());
      caps =
        {
          supports_parallel = false;
          oracle_grade = true;
          figure = true;
        };
    };
  register
    {
      name = "f-order";
      label = "F-Order";
      doc = "general-futures F-Order baseline (nsp hash tables)";
      make = (fun () -> F_order.make ());
      caps =
        {
          supports_parallel = true;
          oracle_grade = false;
          figure = true;
        };
    };
  register
    {
      name = "sf-order";
      label = "SF-Order";
      doc = "the paper's SF-Order detector (default)";
      make = (fun () -> Sf_order.make ());
      caps =
        {
          supports_parallel = true;
          oracle_grade = false;
          figure = true;
        };
    };
  register
    {
      name = "sf-order-2pf";
      label = "SF-Order-2pf";
      doc = "SF-Order with the proved 2-readers-per-future bound";
      make = (fun () -> Sf_order.make ~readers:`Two_per_future ());
      caps =
        {
          supports_parallel = true;
          oracle_grade = false;
          figure = false;
        };
    };
  register
    {
      name = "vc-order";
      label = "VC-Order";
      doc = "async-finish vector-clock detector (arXiv 2112.04352)";
      make = (fun () -> Vc_order.make ());
      caps =
        {
          supports_parallel = true;
          oracle_grade = true;
          figure = false;
        };
    }
