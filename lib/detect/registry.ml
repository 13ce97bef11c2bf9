type caps = {
  supports_parallel : bool;
  figure : bool;
}

type entry = {
  name : string;
  label : string;
  doc : string;
  make : unit -> Detector.t;
  caps : caps;
}

(* List order is presentation order: the harness figure tables iterate
   [all ()] filtered on [caps.figure], so the entries below keep the
   historical MultiBags / F-Order / SF-Order column order. *)
let table =
  [
    {
      name = "multibags";
      label = "MultiBags";
      doc = "sequential MultiBags baseline (depth-first execution only)";
      make = (fun () -> Multibags.make ());
      caps = { supports_parallel = false; figure = true };
    };
    {
      name = "f-order";
      label = "F-Order";
      doc = "general-futures F-Order baseline (nsp hash tables)";
      make = (fun () -> F_order.make ());
      caps = { supports_parallel = true; figure = true };
    };
    {
      name = "sf-order";
      label = "SF-Order";
      doc = "the paper's SF-Order detector (default)";
      make = (fun () -> Sf_order.make ());
      caps = { supports_parallel = true; figure = true };
    };
    {
      name = "sf-order-2pf";
      label = "SF-Order-2pf";
      doc = "SF-Order with the proved 2-readers-per-future bound";
      make = (fun () -> Sf_order.make ~readers:`Two_per_future ());
      caps = { supports_parallel = true; figure = false };
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) table
let all () = table
let names () = List.map (fun e -> e.name) table

let listing () =
  let b = Buffer.create 256 in
  Buffer.add_string b "registered detectors (-d NAME):\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %-14s %-22s %s\n" e.name
           (if e.caps.supports_parallel then "parallel" else "serial")
           e.doc))
    table;
  Buffer.contents b

let unknown name =
  Printf.sprintf "unknown detector %S\n%s" name (listing ())
