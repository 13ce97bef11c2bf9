.PHONY: all build test bench profile perfdiff scaling examples replay-smoke detector-smoke telemetry-smoke serve-smoke serve-obs-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- all --scale default --repeats 3

profile:
	dune exec bench/main.exe -- profile --scale small

# Fresh tiny-scale profile vs the committed baseline; exits 1 if any
# (workload, detector) median regressed beyond max(10%, 3xMAD).
perfdiff:
	dune exec bench/main.exe -- profile --scale tiny --repeats 3 --profile-out /tmp/perfdiff_new.json
	dune exec bench/main.exe -- perfdiff BENCH_profile.json /tmp/perfdiff_new.json

# Measured multicore runs (work-stealing executor) per domain count,
# with the contention counters the hot-path optimizations target.
# Regenerates the committed BENCH_scaling.json baseline (tiny scale,
# matching BENCH_profile.json and the CI perf-smoke lane).
scaling:
	dune exec bench/main.exe -- scaling --scale tiny --repeats 3 --domains 1,2,4,8

examples:
	dune exec examples/quickstart.exe
	dune exec examples/smith_waterman.exe
	dune exec examples/pipeline_search.exe
	dune exec examples/race_debugging.exe
	dune exec examples/video_pipeline.exe

# Record mm and sw, replay each with 1 and 4 shards, and require the
# reports to be byte-identical (stdout is shard-count-invariant). Then
# replay mm under a registry detector (vc-order) and require its races
# and query count (stdout from line 2 on) to match sf-order's.
replay-smoke:
	dune build bin/racedetect.exe
	@set -e; for w in mm sw; do \
	  dune exec bin/racedetect.exe -- record -w $$w -s small -o /tmp/$$w.sflog; \
	  dune exec bin/racedetect.exe -- replay /tmp/$$w.sflog --shards 1 > /tmp/$$w.s1.out; \
	  dune exec bin/racedetect.exe -- replay /tmp/$$w.sflog --shards 4 > /tmp/$$w.s4.out; \
	  diff /tmp/$$w.s1.out /tmp/$$w.s4.out && echo "$$w: 1-shard and 4-shard reports identical"; \
	  if [ $$w = mm ]; then \
	    dune exec bin/racedetect.exe -- replay /tmp/mm.sflog -d sf-order | tail -n +2 > /tmp/mm.sf.out; \
	    dune exec bin/racedetect.exe -- replay /tmp/mm.sflog -d vc-order | tail -n +2 > /tmp/mm.vc.out; \
	    diff /tmp/mm.sf.out /tmp/mm.vc.out && echo "mm: vc-order and sf-order replay reports identical"; \
	    rm -f /tmp/mm.sf.out /tmp/mm.vc.out; \
	  fi; \
	  rm -f /tmp/$$w.sflog /tmp/$$w.s1.out /tmp/$$w.s4.out; \
	done

# Run one workload under every registered detector, driven by the
# registry itself (`racedetect detectors --names`) so a detector added
# to the registry cannot be silently skipped by a stale hard-coded list.
# Then run every detector the listing marks `parallel` on real domains
# (mm and sort, small scale, 2 workers), so the default lock-free access
# history is exercised under true concurrency.
detector-smoke:
	dune build bin/racedetect.exe
	@set -e; \
	names=$$(dune exec bin/racedetect.exe -- detectors --names); \
	for d in multibags f-order sf-order sf-order-2pf vc-order; do \
	  echo "$$names" | grep -qx $$d || { echo "detector-smoke: $$d missing from registry" >&2; exit 2; }; \
	done; \
	n=0; \
	for d in $$names; do \
	  echo "== $$d =="; \
	  dune exec bin/racedetect.exe -- run -w mm -s tiny -d $$d; \
	  n=$$((n + 1)); \
	done; \
	echo "detector-smoke: $$n registered detectors ran mm/tiny clean"; \
	par=$$(dune exec bin/racedetect.exe -- detectors | awk '$$2 ~ /(^|,)parallel(,|$$)/ { print $$1 }'); \
	[ -n "$$par" ] || { echo "detector-smoke: no parallel detector listed" >&2; exit 2; }; \
	for d in $$par; do for w in mm sort; do \
	  echo "== $$d $$w -e parallel -j 2 =="; \
	  dune exec bin/racedetect.exe -- run -w $$w -s small -d $$d -e parallel -j 2; \
	done; done; \
	echo "detector-smoke: parallel detectors ran mm and sort on 2 domains clean"

telemetry-smoke:
	dune build bin/racedetect.exe bench/main.exe
	@set -e; \
	dune exec bench/main.exe -- profile --scale tiny --repeats 2 \
	  --telemetry-out /tmp/telemetry.jsonl --sample-ms 5 \
	  --profile-out /tmp/telemetry_profile.json; \
	dune exec bin/racedetect.exe -- telemetry-lint /tmp/telemetry.jsonl --min-samples 2; \
	dune exec bin/racedetect.exe -- metrics-dump -w mm -s tiny --check > /tmp/metrics.prom; \
	rm -f /tmp/telemetry.jsonl /tmp/telemetry_profile.json /tmp/metrics.prom

serve-smoke:
	dune build bin/racedetect.exe
	@set -e; \
	sock=/tmp/serve_smoke.sock; rm -f $$sock /tmp/serve_smoke.log; \
	dune exec bin/racedetect.exe -- serve --socket $$sock \
	  --max-sessions 4 --stats > /tmp/serve_smoke.log 2>&1 & \
	srv=$$!; \
	for i in $$(seq 1 100); do [ -S $$sock ] && break; sleep 0.1; done; \
	[ -S $$sock ] || { echo "serve-smoke: daemon never listened" >&2; exit 2; }; \
	dune exec bin/racedetect.exe -- stress-client --socket $$sock \
	  --workload mm --sessions 4 --torn 1; \
	wait $$srv; \
	cat /tmp/serve_smoke.log; \
	grep -q "served 4 session(s)" /tmp/serve_smoke.log; \
	grep -q "ERR_TORN" /tmp/serve_smoke.log; \
	echo "serve-smoke: 4 sessions served (1 torn), clean shutdown"; \
	rm -f /tmp/serve_smoke.log $$sock

# The observability surface end to end against a live daemon: probe the
# admin plane (health + grammar-checked Prometheus scrape) before any
# stream exists, serve a stress mix, then lint the audit log and check
# the trace recorded per-session lifecycle spans.
serve-obs-smoke:
	dune build bin/racedetect.exe
	@set -e; \
	sock=/tmp/serve_obs.sock; \
	rm -f $$sock /tmp/serve_obs.log /tmp/serve_obs_audit.jsonl \
	  /tmp/serve_obs_trace.json /tmp/serve_obs_stats.log; \
	dune exec bin/racedetect.exe -- serve --socket $$sock \
	  --max-sessions 4 --stats \
	  --audit-out /tmp/serve_obs_audit.jsonl \
	  --trace-out /tmp/serve_obs_trace.json > /tmp/serve_obs.log 2>&1 & \
	srv=$$!; \
	for i in $$(seq 1 100); do [ -S $$sock ] && break; sleep 0.1; done; \
	[ -S $$sock ] || { echo "serve-obs-smoke: daemon never listened" >&2; exit 2; }; \
	dune exec bin/racedetect.exe -- serve-stats --socket $$sock --check \
	  > /tmp/serve_obs_stats.log; \
	grep -q "health: healthy" /tmp/serve_obs_stats.log; \
	dune exec bin/racedetect.exe -- stress-client --socket $$sock \
	  --workload mm --sessions 4 --torn 1; \
	wait $$srv; \
	cat /tmp/serve_obs.log; \
	grep -q "served 4 session(s)" /tmp/serve_obs.log; \
	dune exec bin/racedetect.exe -- audit-lint /tmp/serve_obs_audit.jsonl \
	  --min-records 10; \
	grep -q "serve.session" /tmp/serve_obs_trace.json; \
	echo "serve-obs-smoke: admin probe + audit lint + session spans OK"; \
	rm -f /tmp/serve_obs.log /tmp/serve_obs_audit.jsonl \
	  /tmp/serve_obs_trace.json /tmp/serve_obs_stats.log $$sock

clean:
	dune clean
