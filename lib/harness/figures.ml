module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Detector = Sfr_detect.Detector
module Detectors = Sfr_detect.Registry
module Sf_order = Sfr_detect.Sf_order
module F_order = Sfr_detect.F_order
module Multibags = Sfr_detect.Multibags
module Tablefmt = Sfr_support.Tablefmt
module Mem_meter = Sfr_support.Mem_meter
module Sim_sched = Sfr_runtime.Sim_sched
module Dag = Sfr_dag.Dag

let instance_maker (w : Workload.t) scale () = w.Workload.instantiate scale

let pp_bytes words = Format.asprintf "%a" Mem_meter.pp_bytes words

(* ---------------------------------------------------------------- *)
(* Figure 3: benchmark characteristics                                *)
(* ---------------------------------------------------------------- *)

let fig3 ~scale =
  Format.printf "Figure 3: benchmark characteristics (measured at scale %a; \
                 'paper' columns are the published values at paper scale)@."
    Workload.pp_scale scale;
  let t =
    Tablefmt.create
      ~title:""
      [
        ("bench", Tablefmt.Left);
        ("# reads", Tablefmt.Right);
        ("# writes", Tablefmt.Right);
        ("# queries", Tablefmt.Right);
        ("# futures", Tablefmt.Right);
        ("# nodes", Tablefmt.Right);
        ("paper reads", Tablefmt.Right);
        ("paper futures", Tablefmt.Right);
        ("paper nodes", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let recorded = Runner.record (instance_maker w scale) in
      (* queries = what full SF-Order performs on this input *)
      let m = Runner.time_serial ~repeats:1 (instance_maker w scale) (Runner.Full (fun () -> Sf_order.make ())) in
      let paper = w.Workload.paper_figure3 in
      let nth i = List.nth paper i in
      Tablefmt.add_row t
        [
          w.Workload.name;
          Tablefmt.cell_int_compact recorded.Runner.reads;
          Tablefmt.cell_int_compact recorded.Runner.writes;
          Tablefmt.cell_int_compact m.Runner.queries;
          string_of_int (Dag.n_futures recorded.Runner.dag);
          string_of_int (Dag.n_nodes recorded.Runner.dag);
          nth 2;
          nth 5;
          nth 6;
        ])
    Registry.all;
  Tablefmt.print t

(* ---------------------------------------------------------------- *)
(* Figure 4: execution times                                          *)
(* ---------------------------------------------------------------- *)

type detcol = { label : string; make : unit -> Detector.t; parallel : bool }

(* The figure tables' detector columns come straight from the registry
   ([caps.figure] entries, registration order), so the historical
   MultiBags / F-Order / SF-Order output is byte-identical and a future
   paper-grade backend only has to register itself. Computed per call:
   tests may register entries after this module initializes. *)
let detcols () =
  List.filter_map
    (fun (e : Detectors.entry) ->
      if e.Detectors.caps.Detectors.figure then
        Some
          {
            label = e.Detectors.label;
            make = e.Detectors.make;
            parallel = e.Detectors.caps.Detectors.supports_parallel;
          }
      else None)
    (Detectors.all ())

let fig4 ~scale ~repeats ~workers =
  let detcols = detcols () in
  Format.printf
    "Figure 4: execution times (seconds). T1 measured on one core; T%d \
     simulated by greedy scheduling of the recorded dag scaled by measured \
     T1 (DESIGN.md 5.1). (x) = overhead vs base; [x] = scalability vs own \
     T1.@."
    workers;
  let t =
    Tablefmt.create ~title:""
      ([ ("bench", Tablefmt.Left); ("base T1", Tablefmt.Right);
         (Printf.sprintf "base T%d" workers, Tablefmt.Right);
         ("config", Tablefmt.Left) ]
      @ List.map (fun d -> (d.label ^ " T1", Tablefmt.Right)) detcols
      @ List.filter_map
          (fun d ->
            if d.parallel then
              Some (Printf.sprintf "%s T%d" d.label workers, Tablefmt.Right)
            else None)
          detcols)
  in
  List.iter
    (fun (w : Workload.t) ->
      let mk = instance_maker w scale in
      let recorded = Runner.record mk in
      let base = Runner.time_serial ~repeats mk Runner.Base in
      let base_tp =
        Runner.simulated_time recorded ~measured_t1:base.Runner.seconds ~workers
      in
      let row_for config_label mode_of =
        let cells_t1 =
          List.map
            (fun d ->
              let m = Runner.time_serial ~repeats mk (mode_of d) in
              Printf.sprintf "%.3f %s" m.Runner.seconds
                (Tablefmt.cell_times (m.Runner.seconds /. base.Runner.seconds)))
            detcols
        in
        let cells_tp =
          List.filter_map
            (fun d ->
              if not d.parallel then None
              else begin
                let m = Runner.time_serial ~repeats mk (mode_of d) in
                let tp =
                  Runner.simulated_time recorded ~measured_t1:m.Runner.seconds
                    ~workers
                in
                Some
                  (Printf.sprintf "%.3f %s" tp
                     (Tablefmt.cell_speedup (m.Runner.seconds /. tp)))
              end)
            detcols
        in
        Tablefmt.add_row t
          ([ w.Workload.name;
             Printf.sprintf "%.3f" base.Runner.seconds;
             Printf.sprintf "%.3f %s" base_tp
               (Tablefmt.cell_speedup (base.Runner.seconds /. base_tp));
             config_label ]
          @ cells_t1 @ cells_tp)
      in
      row_for "reach" (fun d -> Runner.Reach d.make);
      row_for "full" (fun d -> Runner.Full d.make);
      Tablefmt.add_separator t)
    Registry.all;
  Tablefmt.print t

(* ---------------------------------------------------------------- *)
(* Figure 5: memory usage of reachability structures                  *)
(* ---------------------------------------------------------------- *)

let fig5 ~scale =
  Format.printf
    "Figure 5: memory of the per-node reachability tables (gp bitmaps and \
     cp chains vs nsp hash tables), cumulative allocation over a reach run — the \
     retain-per-node measurement of the paper (EXPERIMENTS.md).@.";
  let t =
    Tablefmt.create ~title:""
      [
        ("bench", Tablefmt.Left);
        ("F-Order", Tablefmt.Right);
        ("SF-Order", Tablefmt.Right);
        ("SF/F ratio", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let mk = instance_maker w scale in
      let mf = Runner.time_serial ~repeats:1 mk (Runner.Reach (fun () -> F_order.make ())) in
      let ms = Runner.time_serial ~repeats:1 mk (Runner.Reach (fun () -> Sf_order.make ())) in
      Tablefmt.add_row t
        [
          w.Workload.name;
          pp_bytes mf.Runner.reach_table_words;
          pp_bytes ms.Runner.reach_table_words;
          Printf.sprintf "%.2f%%"
            (100.0 *. float_of_int ms.Runner.reach_table_words
            /. float_of_int (max 1 mf.Runner.reach_table_words));
        ])
    Registry.all;
  Tablefmt.print t

(* ---------------------------------------------------------------- *)
(* Scalability sweep (the curve behind Figure 4's brackets)           *)
(* ---------------------------------------------------------------- *)

let sweep ~scale ~repeats =
  Format.printf
    "Scalability sweep: simulated time (seconds) vs workers, per benchmark \
     and configuration.@.";
  let ps = [ 1; 2; 4; 8; 12; 16; 20; 32 ] in
  let t =
    Tablefmt.create ~title:""
      ([ ("bench", Tablefmt.Left); ("config", Tablefmt.Left) ]
      @ List.map (fun p -> ("P=" ^ string_of_int p, Tablefmt.Right)) ps)
  in
  List.iter
    (fun (w : Workload.t) ->
      let mk = instance_maker w scale in
      let recorded = Runner.record mk in
      let add label t1 =
        Tablefmt.add_row t
          ([ w.Workload.name; label ]
          @ List.map
              (fun p ->
                Printf.sprintf "%.3f"
                  (Runner.simulated_time recorded ~measured_t1:t1 ~workers:p))
              ps)
      in
      let base = Runner.time_serial ~repeats mk Runner.Base in
      add "base" base.Runner.seconds;
      List.iter
        (fun (e : Detectors.entry) ->
          if e.Detectors.caps.Detectors.figure then begin
            let m =
              Runner.time_serial ~repeats mk (Runner.Full e.Detectors.make)
            in
            if e.Detectors.caps.Detectors.supports_parallel then
              add (e.Detectors.name ^ " full") m.Runner.seconds
            else
              (* a sequential detector cannot run in parallel: constant
                 across P *)
              Tablefmt.add_row t
                ([ w.Workload.name; e.Detectors.name ^ " full (serial only)" ]
                @ List.map (fun _ -> Printf.sprintf "%.3f" m.Runner.seconds) ps)
          end)
        (Detectors.all ());
      Tablefmt.add_separator t)
    Registry.all;
  Tablefmt.print t

(* ---------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ---------------------------------------------------------------- *)

let ablation_locks ~scale ~repeats =
  Format.printf
    "Ablation A (paper section 4): access-history locking cost. Full \
     detection with and without per-location locks (serial runs).@.";
  let t =
    Tablefmt.create ~title:""
      [
        ("bench", Tablefmt.Left);
        ("detector", Tablefmt.Left);
        ("locked T1", Tablefmt.Right);
        ("lock-free T1", Tablefmt.Right);
        ("lock overhead", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let mk = instance_maker w scale in
      List.iter
        (fun (name, locked, unlocked) ->
          let ml = Runner.time_serial ~repeats mk (Runner.Full locked) in
          let mu = Runner.time_serial ~repeats mk (Runner.Full unlocked) in
          Tablefmt.add_row t
            [
              w.Workload.name;
              name;
              Printf.sprintf "%.3f" ml.Runner.seconds;
              Printf.sprintf "%.3f" mu.Runner.seconds;
              Tablefmt.cell_times (ml.Runner.seconds /. mu.Runner.seconds);
            ])
        [
          ( "sf-order",
            (fun () -> Sf_order.make ~history:`Mutex ()),
            fun () -> Sf_order.make ~history:`Unsynchronized () );
          ( "f-order",
            (fun () -> F_order.make ~history:`Mutex ()),
            fun () -> F_order.make ~history:`Unsynchronized () );
        ])
    Registry.all;
  Tablefmt.print t

let ablation_sets ~scale ~repeats =
  Format.printf
    "Ablation B (paper section 4): gp as bitmaps (SF-Order) vs hash \
     tables (what general-futures detectors need); cp is the same store in \
     both.@.";
  let t =
    Tablefmt.create ~title:""
      [
        ("bench", Tablefmt.Left);
        ("bitmap T1", Tablefmt.Right);
        ("hashed T1", Tablefmt.Right);
        ("bitmap reach mem", Tablefmt.Right);
        ("hashed reach mem", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let mk = instance_maker w scale in
      let mb =
        Runner.time_serial ~repeats mk (Runner.Full (fun () -> Sf_order.make ~sets:`Bitmap ()))
      in
      let mh =
        Runner.time_serial ~repeats mk (Runner.Full (fun () -> Sf_order.make ~sets:`Hashed ()))
      in
      Tablefmt.add_row t
        [
          w.Workload.name;
          Printf.sprintf "%.3f" mb.Runner.seconds;
          Printf.sprintf "%.3f" mh.Runner.seconds;
          pp_bytes mb.Runner.reach_words;
          pp_bytes mh.Runner.reach_words;
        ])
    Registry.all;
  Tablefmt.print t

let ablation_readers ~scale ~repeats =
  Format.printf
    "Ablation C (paper sections 3.5 vs 4): keep-all readers (what the \
     paper's implementation does) vs the proved 2-per-future bound.@.";
  let t =
    Tablefmt.create ~title:""
      [
        ("bench", Tablefmt.Left);
        ("keep-all T1", Tablefmt.Right);
        ("2-per-future T1", Tablefmt.Right);
        ("keep-all max rdrs", Tablefmt.Right);
        ("2pf max rdrs", Tablefmt.Right);
        ("2k bound", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let mk = instance_maker w scale in
      let recorded = Runner.record mk in
      let k = Dag.n_futures recorded.Runner.dag in
      (* both on [`Mutex], the one mode that holds both policies, so the
         columns differ by reader policy alone *)
      let time readers =
        Runner.time_serial ~repeats mk
          (Runner.Full (fun () -> Sf_order.make ~readers ~history:`Mutex ()))
      in
      let ma = time `All and m2 = time `Two_per_future in
      Tablefmt.add_row t
        [
          w.Workload.name;
          Printf.sprintf "%.3f" ma.Runner.seconds;
          Printf.sprintf "%.3f" m2.Runner.seconds;
          string_of_int ma.Runner.max_readers;
          string_of_int m2.Runner.max_readers;
          string_of_int (2 * k);
        ])
    Registry.all;
  Tablefmt.print t

let ablation_history ~scale ~repeats =
  Format.printf
    "Ablation D (extension; paper conclusion): redesigned access-history \
     synchronization under full SF-Order detection. `Unsynchronized` is the \
     serial-only lower bound; `Lockfree` is parallel-safe.@.";
  let t =
    Tablefmt.create ~title:""
      [
        ("bench", Tablefmt.Left);
        ("mutex T1", Tablefmt.Right);
        ("lockfree T1", Tablefmt.Right);
        ("unsync T1", Tablefmt.Right);
        ("lockfree vs mutex", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let mk = instance_maker w scale in
      let time history =
        (Runner.time_serial ~repeats mk
           (Runner.Full (fun () -> Sf_order.make ~history ())))
          .Runner.seconds
      in
      let tm = time `Mutex and tl = time `Lockfree and tu = time `Unsynchronized in
      Tablefmt.add_row t
        [
          w.Workload.name;
          Printf.sprintf "%.3f" tm;
          Printf.sprintf "%.3f" tl;
          Printf.sprintf "%.3f" tu;
          Tablefmt.cell_times (tm /. tl);
        ])
    Registry.all;
  Tablefmt.print t

let motivation ~scale =
  Format.printf
    "Motivation (paper section 1, via Singer et al.): Smith-Waterman with \
     structured futures vs fork-join anti-diagonal barriers. Same work, \
     lower span.@.";
  let module Sw = Sfr_workloads.Sw in
  let module Serial_exec = Sfr_runtime.Serial_exec in
  let module Trace = Sfr_runtime.Trace in
  let module Dag_algo = Sfr_dag.Dag_algo in
  let record instantiate =
    let inst = instantiate scale in
    let trace, cb, root = Trace.make () in
    let (), _ = Serial_exec.run cb ~root inst.Workload.program in
    Trace.dag trace
  in
  let t =
    Tablefmt.create ~title:""
      ([ ("version", Tablefmt.Left); ("work", Tablefmt.Right);
         ("span", Tablefmt.Right); ("parallelism", Tablefmt.Right) ]
      @ List.map
          (fun p -> ("speedup P=" ^ string_of_int p, Tablefmt.Right))
          [ 4; 8; 16; 32 ])
  in
  List.iter
    (fun (label, instantiate) ->
      let dag = record instantiate in
      let work = Dag_algo.work dag in
      let span = Dag_algo.span dag Dag_algo.Full in
      Tablefmt.add_row t
        ([ label;
           Tablefmt.cell_int_compact work;
           Tablefmt.cell_int_compact span;
           Printf.sprintf "%.1f" (float_of_int work /. float_of_int (max 1 span)) ]
        @ List.map
            (fun p -> Printf.sprintf "%.2fx" (Sim_sched.speedup dag ~workers:p))
            [ 4; 8; 16; 32 ]))
    [
      ("futures, uniform blocks", fun s -> Sw.instantiate s);
      ("fork-join, uniform blocks", fun s -> Sw.instantiate_forkjoin s);
      ("futures, skewed blocks", fun s -> Sw.instantiate ~skew:true s);
      ("fork-join, skewed blocks", fun s -> Sw.instantiate_forkjoin ~skew:true s);
    ];
  Tablefmt.print t

let complexity () =
  Format.printf
    "Complexity validation (Lemma 3.12): reachability construction is \
     O(T1 + k^2). Superlinear growth: words/k grows with k while words/k^2 \
     approaches a constant (the per-table O(k) terms wash out).@.";
  let module P = Sfr_runtime.Program in
  let module Serial_exec = Sfr_runtime.Serial_exec in
  (* k futures in a get chain: gp(f_i) accumulates i bits *)
  let get_chain k () =
    let prev = ref None in
    for _ = 1 to k do
      let p = !prev in
      let h =
        P.create (fun () ->
            (match p with Some p -> ignore (P.get p) | None -> ());
            P.work 1;
            0)
      in
      prev := Some h
    done;
    match !prev with Some h -> ignore (P.get h) | None -> ()
  in
  (* k nested creates: cp(f_i) accumulates i bits *)
  let rec create_nest k () =
    if k = 0 then 0
    else begin
      let h = P.create (create_nest (k - 1)) in
      P.work 1;
      P.get h
    end
  in
  let t =
    Tablefmt.create ~title:""
      [
        ("program", Tablefmt.Left);
        ("k", Tablefmt.Right);
        ("reach T1 (s)", Tablefmt.Right);
        ("table words", Tablefmt.Right);
        ("words / k", Tablefmt.Right);
        ("words / k^2", Tablefmt.Right);
        ("queries", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (name, prog_of_k) ->
      List.iter
        (fun k ->
          let det = Sf_order.make () in
          let cb = Runner.reach_only det.Detector.callbacks in
          let (), dt =
            Sfr_support.Stats.time (fun () ->
                Sfr_runtime.Serial_exec.run cb ~root:det.Detector.root
                  (prog_of_k k)
                |> fst)
          in
          let words = det.Detector.reach_table_words () in
          Tablefmt.add_row t
            [
              name;
              string_of_int k;
              Printf.sprintf "%.4f" dt;
              string_of_int words;
              Printf.sprintf "%.1f" (float_of_int words /. float_of_int k);
              Printf.sprintf "%.4f" (float_of_int words /. float_of_int (k * k));
              string_of_int (det.Detector.queries ());
            ])
        [ 128; 256; 512; 1024 ];
      Tablefmt.add_separator t)
    [
      ("get chain (gp growth)", fun k () -> get_chain k ());
      ("create nest (cp growth)", fun k () -> ignore (create_nest k ()));
    ];
  Tablefmt.print t
