(* Every metric sfbench knows, with the unit it is reported in. A
   workload can only record a metric named here, so each name has one
   unit; the tests check BENCHMARK.json against these tables. *)

type better = Lower | Higher

(* Which statistic of a run's samples is the metric's value: the median,
   or the best sample (the least for [Lower], the greatest for [Higher]).
   Interference from other tenants of a shared host only ever slows an
   operation, and it comes in bursts that can cover most of a run, so the
   best sample is the steadiest estimate of the code's own cost (Chen and
   Revels, "Robust benchmarking in noisy environments", 2016). *)
type stat = Median | Best

type metric = { name : string; unit_ : string; better : better option; stat : stat }

let m ?better ?(stat = Median) name unit_ = { name; unit_; better; stat }

(* Untraced metrics. Every workload reports the first four, which
   BENCHMARK.json gates; the rest are details of one workload. *)
let end_to_end =
  [
    m "op_s" "s" ~better:Lower ~stat:Best;
    m "events_per_s" "events/s" ~better:Higher ~stat:Best;
    m "peak_rss_mb" "MB" ~better:Lower;
    m "setup_s" "s" ~better:Lower;
    m "record_s" "s" ~better:Lower;
    m "replay_s" "s" ~better:Lower;
    m "replay_sharded_s" "s" ~better:Lower;
    m "session_p90_s" "s" ~better:Lower;
  ]

(* Traced metrics, by layer. *)
let per_layer =
  [
    (* runtime: Program, Serial_exec, Par_exec *)
    m "runtime.base_s" "s";
    m "runtime.self_s" "s";
    m "runtime.tasks" "count";
    m "runtime.steals" "count";
    m "gc.minor_words" "words";
    m "gc.major_words" "words";
    m "gc.major_collections" "count";
    (* reach + om: Sp_order, Fp_sets, Om, Depa *)
    m "reach.struct_s" "s";
    m "reach.struct_calls" "count";
    m "reach.only_s" "s";
    m "reach.query.same_future" "count";
    m "reach.query.cp" "count";
    m "reach.query.gp" "count";
    m "reach.table.alloc_words" "words";
    m "reach.words" "words";
    m "om.relabels" "count";
    m "om.splits" "count";
    (* detect: Access_history, Sf_order precedes, Race *)
    m "detect.access_s" "s";
    m "detect.access_calls" "count";
    m "detect.access_ns" "ns";
    m "detect.queries" "count";
    m "history.lock.acquire" "count";
    m "history.lock.contended" "count";
    m "history.cas.retry" "count";
    m "history.write.fastpath" "count";
    m "history.fastpath_ratio" "ratio";
    m "history.readers.insert" "count";
    m "history.readers.evict" "count";
    m "detect.history_words" "words";
    m "detect.max_readers" "count";
    (* eventlog: Recorder, Log_format, Stream_reader, and the replay child *)
    m "eventlog.record_cb_s" "s";
    m "eventlog.close_s" "s";
    m "eventlog.events" "count";
    m "eventlog.bytes_per_event" "B";
    m "eventlog.decode_s" "s";
    m "replay.process_floor_s" "s";
    m "replay.engine_s" "s";
    m "replay.sharded_engine_s" "s";
    (* serve: Frame, Session, Server, Loopback *)
    m "serve.hello_s" "s";
    m "serve.pump_s" "s";
    m "serve.close_s" "s";
    m "serve.credit_stalls" "count";
    m "serve.frames.in" "count";
    m "serve.bytes.in" "B";
    m "serve.credit.granted" "B";
    (* where the traced operation's time went, as shares of it *)
    m "runtime.pct" "%";
    m "reach.pct" "%";
    m "detect.pct" "%";
    m "eventlog.pct" "%";
    m "replay.pct" "%";
    m "serve.pct" "%";
    m "unattributed.pct" "%";
    (* tracing itself *)
    m "trace.timer_ns" "ns";
    m "trace.timer_inside_ns" "ns";
    m "trace.overhead_s" "s";
    m "trace.residual_pct" "%";
    m "unattributed_s" "s";
  ]

let all = end_to_end @ per_layer

let find name = List.find_opt (fun x -> x.name = name) all

let unit_of name =
  match find name with
  | Some x -> x.unit_
  | None -> invalid_arg ("Catalog.unit_of: unknown metric " ^ name)

let is_time unit_ = List.mem unit_ [ "s"; "ms"; "us"; "ns" ]
