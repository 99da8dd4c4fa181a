.PHONY: all build test loc unused bench perfbench-smoke examples smoke chaos crash remote failover erasure scale share fmt lint-names cli-help check clean

# Each experiment step below writes its JSON report to
# reports/<step>.json (gitignored), so a report can be diffed against
# any past commit's CI artifact without rebuilding that commit.
REPORT = --json reports/$@.json

all: build

build:
	dune build @all

test:
	dune runtest

# Code size: ml/mli lines per library and for bin, bench and test,
# plus the lib total — the line count deletion changes report — and
# the number of tests, from the suite's own list (nothing runs).
loc:
	@for d in lib/* bin bench test; do \
		[ -d $$d ] || continue; \
		printf '%-16s %6d\n' "$$d" "$$(cat $$d/*.ml $$d/*.mli 2>/dev/null | wc -l)"; \
	done; \
	printf '%-16s %6d\n' "lib total" "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"; \
	printf '%-16s %6d\n' "tests" "$$(dune exec test/test_main.exe -- list 2>/dev/null | grep -cE '^[^ ]+ +[0-9]+ ')"; \
	printf '%-16s %6d\n' "settable values" "$$(grep -o '?[a-z_0-9]*:' lib/*/*.mli | wc -l)"

# Uncalled exports: every `val` of a lib .mli that no file outside its
# module references — neither qualified (M.v, or Sub.v for a val of a
# submodule Sub) in any .ml under lib, bin, bench, perfbench, examples
# or test, nor bare in a file that opens, includes or aliases M.
# Lists them and exits 1 when there is any. Must run from the repo
# root.
unused:
	@files=$$(ls lib/*/*.ml bin/*.ml bench/*.ml perfbench/*.ml examples/*.ml test/*.ml); \
	out=$$(for mli in lib/*/*.mli; do \
		others=$$(echo "$$files" | grep -vx "$${mli%i}"); \
		top=$$(basename $$mli .mli | awk '{ print toupper(substr($$0, 1, 1)) substr($$0, 2) }'); \
		awk '/^ *module [A-Z][A-Za-z0-9_]* *: *sig/ { m[++d] = $$2; next } \
			/^ *end/ && d > 0 { d--; next } \
			/^ *val [a-z_]/ { v = $$2; sub(/:.*/, "", v); print (d ? m[d] : "-"), v }' $$mli | \
		while read sub v; do \
			q=$$top; [ "$$sub" = - ] || q=$$sub; \
			grep -qE "\\b$$q\\.$$v\\b" $$others && continue; \
			openers=$$(grep -lE "\\b(open!?|include) +([A-Z][A-Za-z0-9_]*\\.)*$$q\\b|\\bmodule +[A-Z][A-Za-z0-9_]* *= *([A-Z][A-Za-z0-9_]*\\.)*$$q\\b|\\b$$q\\.\\(" $$others); \
			[ -n "$$openers" ] && grep -qw "$$v" $$openers && continue; \
			echo "$$mli: $$q.$$v"; \
		done; \
	done); \
	[ -z "$$out" ] || { echo "$$out"; exit 1; }

# The Bechamel micro-benchmarks, then every machine-readable record
# (BENCH_<name>.json) in one process; exits 1 once all are written if
# any record's verdict is false.
bench:
	dune exec bench/main.exe

# One record: bench-policy, bench-chaos, bench-crash, bench-backing,
# bench-share or bench-scale regenerates BENCH_<name>.json (what each
# holds: bench/main.ml, EXPERIMENTS.md).
bench-%:
	dune exec bench/main.exe -- $*

# Build the outside-in benchmark (perfbench/) and run it for one second
# on each workload. run.py exits non-zero when the build fails or any
# output check fails (books, same-seed reruns, traced vs untraced), so
# a library change that breaks the benchmark fails here. Each
# workload's seed-1 `simulated figures:` line (event count included)
# must then equal its line in test/perfbench_figures.txt, so a change
# that reorders or adds engine events fails here too. The allocation
# gauge is the host-side gate: it repeats exactly for a fixed build,
# so every workload must report that its untraced spans allocated the
# same, and its seed-1 alloc_mwords may be at most 10% above its line
# in test/perfbench_alloc.txt. The heap gauge repeats exactly too: its
# seed-1 peak_heap_mb may be at most 5% (the metric's bound in
# BENCHMARK.json) above its line in test/perfbench_heap.txt. Each
# workload's output is also kept as reports/perfbench-<workload>.txt
# (gitignored), so a run's gauges outlive it (CI uploads them).
perfbench-smoke:
	@mkdir -p .bench_build reports; : > .bench_build/perfbench-figures.txt; \
	: > .bench_build/perfbench-alloc.txt; : > .bench_build/perfbench-heap.txt; \
	for w in disk-paper many-domains fleet-degraded; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
			--trace 0 > .bench_build/perfbench-$$w.txt; \
		status=$$?; cat .bench_build/perfbench-$$w.txt; \
		cp .bench_build/perfbench-$$w.txt reports/perfbench-$$w.txt; \
		[ $$status -eq 0 ] || exit 1; \
		grep -qx 'allocation repeats exactly across untraced spans: true' \
			.bench_build/perfbench-$$w.txt \
			|| { echo "perfbench $$w: allocation differs between untraced spans"; exit 1; }; \
		sed -n "s/^simulated figures: /$$w: /p" .bench_build/perfbench-$$w.txt \
			>> .bench_build/perfbench-figures.txt; \
		awk -v w=$$w '$$1 == "alloc_mwords" { print w ": " $$2 }' \
			.bench_build/perfbench-$$w.txt >> .bench_build/perfbench-alloc.txt; \
		awk -v w=$$w '$$1 == "peak_heap_mb" { print w ": " $$2 }' \
			.bench_build/perfbench-$$w.txt >> .bench_build/perfbench-heap.txt; \
	done; \
	diff -u test/perfbench_figures.txt .bench_build/perfbench-figures.txt \
		&& echo "perfbench simulated figures match test/perfbench_figures.txt" \
		&& awk 'NR == FNR { base[$$1] = $$2; next } \
			!($$1 in base) { print "perfbench " $$1 " no alloc_mwords baseline"; bad = 1; next } \
			$$2 > 1.1 * base[$$1] { print "perfbench " $$1 " alloc_mwords " $$2 \
				" > 1.1 x " base[$$1]; bad = 1 } \
			END { exit bad }' test/perfbench_alloc.txt .bench_build/perfbench-alloc.txt \
		&& echo "perfbench alloc_mwords within 10% of test/perfbench_alloc.txt" \
		&& awk 'NR == FNR { base[$$1] = $$2; next } \
			!($$1 in base) { print "perfbench " $$1 " no peak_heap_mb baseline"; bad = 1; next } \
			$$2 > 1.05 * base[$$1] { print "perfbench " $$1 " peak_heap_mb " $$2 \
				" > 1.05 x " base[$$1]; bad = 1 } \
			END { exit bad }' test/perfbench_heap.txt .bench_build/perfbench-heap.txt \
		&& echo "perfbench peak_heap_mb within 5% of test/perfbench_heap.txt"

# Run the five demos under examples/: their stdout, each under a
# `== <name>` header, must equal test/examples.txt (the demos are
# deterministic), and a demo that exits non-zero fails the target.
# quickstart pages through the paged stretch driver, mapped_file
# through the same driver over a file backing.
EXAMPLES = quickstart video_vs_compile revocation_demo crosstalk_demo mapped_file

examples:
	@dune build $(EXAMPLES:%=examples/%.exe) && \
	for e in $(EXAMPLES); do \
		echo "== $$e"; dune exec examples/$$e.exe || echo "FAILED"; \
	done | diff -u test/examples.txt - && echo "examples: OK"

# Quick end-to-end run of the policy-compare figure (two contrasting
# policies, short duration).
smoke chaos crash remote failover erasure scale share: | reports

reports:
	mkdir -p reports

smoke:
	dune exec bin/nemesis_sim.exe -- policy-compare -d 15 \
		--policies fifo,fifo+ra8,clock $(REPORT)

# Formatting gate: only enforced when ocamlformat is installed (the
# default container does not ship it); the build and tests always run.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# Quick chaos run: fault injection against one victim, clean-domain
# isolation and recovery accounting asserted (non-zero exit on breach).
chaos:
	dune exec bin/nemesis_sim.exe -- chaos -d 20 $(REPORT)

# Crash-consistency run: seeded torn writes against the victim's swap
# and the intent journal, remount/replay and domain restart asserted
# (non-zero exit if a committed page is lost or a bystander suffers).
crash:
	dune exec bin/nemesis_sim.exe -- crash-recover --rounds 2 $(REPORT)

# Remote-paging run: three tiered domains on a one-node fleet beside
# three disk-only bystanders, link chaos in the second half; zero
# bystander violations, balanced fleet books, the fleet's drop count
# equal to the injector's and a byte-identical same-seed rerun
# asserted (non-zero exit on breach).
remote:
	dune exec bin/nemesis_sim.exe -- remote -d 20 $(REPORT)

# Failover run: three tiered domains page through a 4-node replicated
# fleet (R = 2) beside three disk-only bystanders; one node is wiped
# and another partitioned mid-run. Zero committed pages lost, zero
# bystander violations, balanced fleet books, a re-replicated wipe
# victim, a probed-back partition victim and a byte-identical
# same-seed rerun asserted (non-zero exit on breach). Runs at the
# full 30 s default: the verdict needs warm domains re-reading
# through the fault windows.
failover:
	dune exec bin/nemesis_sim.exe -- failover $(REPORT)

# Erasure run: three tiered domains page through a six-node (4,2)
# erasure-coded fleet beside three disk-only bystanders; two nodes
# are wiped mid-run (within the m = 2 loss budget), a standby joins,
# and one node serves 2% corrupt shards. Zero committed pages lost,
# degraded reads >= 50x faster than the disk floor, storage overhead
# <= 1.55x (vs 2x for R = 2), balanced shard books and a
# byte-identical same-seed rerun asserted (non-zero exit on breach).
erasure:
	dune exec bin/nemesis_sim.exe -- erasure $(REPORT)

# Scale-out run: 128 self-paging domains under tight admission
# control; zero QoS violations, balanced frame books and the typed
# late-comer refusal asserted (non-zero exit on breach).
scale:
	dune exec bin/nemesis_sim.exe -- scale $(REPORT)

# Multi-tenancy run: a CoW fleet forked from one frozen template over
# the compressed-RAM tier, half the fleet killed mid-run; one resident
# copy per shared page, balanced reference books and untouched
# bystander QoS asserted (non-zero exit on breach).
share:
	dune exec bin/nemesis_sim.exe -- tenancy -d 20 --tenants 12 $(REPORT)

# Name hygiene: every name the command line accepts (replacement
# policy, policy modifier, subcommand, ablation) must be documented in
# README.md/DESIGN.md as a whole word, and every lib/experiments module
# must be claimed by a subcommand (non-zero exit on either breach).
# Must run from the repo root.
lint-names:
	dune exec bin/nemesis_sim.exe -- lint-names

# The CLI surface: the --help=plain page of every subcommand, each
# under a `== <name>` header, must equal test/cli_help.txt, so a
# change to a flag, a default or a doc string updates that file on
# purpose.
CLI_COMMANDS = table1 fig7 fig8 fig9 crosstalk netiso policy-compare ablate \
	chaos crash-recover remote failover erasure scale tenancy all

cli-help:
	@dune build bin/nemesis_sim.exe && \
	for c in $(CLI_COMMANDS); do \
		echo "== $$c"; dune exec bin/nemesis_sim.exe -- $$c --help=plain || echo "FAILED"; \
	done | diff -u test/cli_help.txt - && echo "cli-help: OK"

check: fmt build test unused lint-names cli-help examples smoke chaos crash remote failover erasure scale share
	@echo "check OK"

clean:
	dune clean
