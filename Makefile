.PHONY: all build test bench perfdiff examples replay-smoke detector-smoke telemetry-smoke serve-smoke serve-obs-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- all --scale default --repeats 3

# sfbench (benchmark/) at BASE against HEAD, on this machine, one run
# each: BASE is checked out into a git worktree under _perfdiff/ (dune
# ignores _-prefixed directories), both trees build and run every
# workload, and `sfbench agree` compares the two result files with the
# per-metric bounds of BENCHMARK.json and the failed-operation share.
# Exits non-zero when a run has a failed operation or an I/O error, or
# when agree disagrees (its status, 1 or 2, is kept in
# _perfdiff/agree.exit). A BASE without benchmark/run.sh is skipped.
perfdiff:
	@test -n "$(BASE)" || { echo "usage: make perfdiff BASE=<commit>" >&2; exit 2; }
	@set -e; dir=_perfdiff; \
	if [ -d $$dir/base ]; then git worktree remove --force $$dir/base; fi; \
	rm -rf $$dir; git worktree prune; mkdir -p $$dir; \
	git worktree add --detach $$dir/base "$(BASE)"; \
	trap 'git worktree remove --force $$dir/base' EXIT; \
	if [ ! -f $$dir/base/benchmark/run.sh ]; then \
	  echo "perfdiff: $(BASE) has no benchmark/run.sh; nothing to compare"; \
	  exit 0; \
	fi; \
	(cd $$dir/base && bash benchmark/run.sh --seed 1 --seconds 10 --out ../base.json); \
	bash benchmark/run.sh --seed 1 --seconds 10 --out $$dir/head.json; \
	./_build/default/benchmark/sfbench.exe agree $$dir/base.json $$dir/head.json \
	  || { s=$$?; echo $$s > $$dir/agree.exit; exit $$s; }

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

# Sample a 2-worker live run every 5 ms into a JSONL stream, lint it,
# and grammar-check the Prometheus exposition. An unwritable telemetry
# path must exit 2 before the run starts.
telemetry-smoke:
	dune build bin/racedetect.exe
	@set -e; \
	dune exec bin/racedetect.exe -- run -w mm -s small -e parallel -j 2 \
	  --telemetry-out /tmp/telemetry.jsonl --sample-ms 5; \
	dune exec bin/racedetect.exe -- telemetry-lint /tmp/telemetry.jsonl --min-samples 2; \
	dune exec bin/racedetect.exe -- metrics-dump -w mm -s tiny --check > /tmp/metrics.prom; \
	rm -f /tmp/telemetry.jsonl /tmp/metrics.prom; \
	s=0; dune exec bin/racedetect.exe -- run -w mm -s tiny \
	  --telemetry-out /nonexistent/dir/t.jsonl > /dev/null || s=$$?; \
	[ $$s -eq 2 ] || { echo "telemetry-smoke: unwritable --telemetry-out exited $$s, not 2" >&2; exit 1; }; \
	echo "telemetry-smoke: unwritable --telemetry-out exits 2"

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
