.PHONY: all build test loc bench perfbench-smoke smoke chaos crash remote failover erasure scale share fmt lint-registry check clean

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
		printf '%-16s %6d\n' "$$d" "$$(cat $$d/*.ml $$d/*.mli 2>/dev/null | wc -l)"; \
	done; \
	printf '%-16s %6d\n' "lib total" "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"; \
	printf '%-16s %6d\n' "tests" "$$(dune exec test/test_main.exe -- list 2>/dev/null | grep -cE '^[^ ]+ +[0-9]+ ')"

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
# in test/perfbench_alloc.txt.
perfbench-smoke:
	@mkdir -p .bench_build; : > .bench_build/perfbench-figures.txt; \
	: > .bench_build/perfbench-alloc.txt; \
	for w in disk-paper many-domains fleet-degraded; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
			--trace 0 > .bench_build/perfbench-$$w.txt; \
		status=$$?; cat .bench_build/perfbench-$$w.txt; \
		[ $$status -eq 0 ] || exit 1; \
		grep -qx 'allocation repeats exactly across untraced spans: true' \
			.bench_build/perfbench-$$w.txt \
			|| { echo "perfbench $$w: allocation differs between untraced spans"; exit 1; }; \
		sed -n "s/^simulated figures: /$$w: /p" .bench_build/perfbench-$$w.txt \
			>> .bench_build/perfbench-figures.txt; \
		awk -v w=$$w '$$1 == "alloc_mwords" { print w ": " $$2 }' \
			.bench_build/perfbench-$$w.txt >> .bench_build/perfbench-alloc.txt; \
	done; \
	diff -u test/perfbench_figures.txt .bench_build/perfbench-figures.txt \
		&& echo "perfbench simulated figures match test/perfbench_figures.txt" \
		&& awk 'NR == FNR { base[$$1] = $$2; next } \
			!($$1 in base) { print "perfbench " $$1 " no alloc_mwords baseline"; bad = 1; next } \
			$$2 > 1.1 * base[$$1] { print "perfbench " $$1 " alloc_mwords " $$2 \
				" > 1.1 x " base[$$1]; bad = 1 } \
			END { exit bad }' test/perfbench_alloc.txt .bench_build/perfbench-alloc.txt \
		&& echo "perfbench alloc_mwords within 10% of test/perfbench_alloc.txt"

# Quick end-to-end run of the policy-compare figure (two contrasting
# policies, short duration).
smoke:
	dune exec bin/nemesis_sim.exe -- policy-compare -d 15 \
		--policies fifo,fifo+ra8,clock

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
	dune exec bin/nemesis_sim.exe -- chaos -d 20

# Crash-consistency run: seeded torn writes against the victim's swap
# and the intent journal, remount/replay and domain restart asserted
# (non-zero exit if a committed page is lost or a bystander suffers).
crash:
	dune exec bin/nemesis_sim.exe -- crash-recover --rounds 2

# Remote-paging run: three tiered domains on a one-node fleet beside
# three disk-only bystanders, link chaos in the second half; zero
# bystander violations, balanced fleet books, the fleet's drop count
# equal to the injector's and a byte-identical same-seed rerun
# asserted (non-zero exit on breach).
remote:
	dune exec bin/nemesis_sim.exe -- remote -d 20

# Failover run: three tiered domains page through a 4-node replicated
# fleet (R = 2) beside three disk-only bystanders; one node is wiped
# and another partitioned mid-run. Zero committed pages lost, zero
# bystander violations, balanced fleet books, a re-replicated wipe
# victim, a probed-back partition victim and a byte-identical
# same-seed rerun asserted (non-zero exit on breach). Runs at the
# full 30 s default: the verdict needs warm domains re-reading
# through the fault windows.
failover:
	dune exec bin/nemesis_sim.exe -- failover

# Erasure run: three tiered domains page through a six-node (4,2)
# erasure-coded fleet beside three disk-only bystanders; two nodes
# are wiped mid-run (within the m = 2 loss budget), a standby joins,
# and one node serves 2% corrupt shards. Zero committed pages lost,
# degraded reads >= 50x faster than the disk floor, storage overhead
# <= 1.55x (vs 2x for R = 2), balanced shard books and a
# byte-identical same-seed rerun asserted (non-zero exit on breach).
erasure:
	dune exec bin/nemesis_sim.exe -- erasure

# Scale-out run: 128 self-paging domains under tight admission
# control; zero QoS violations, balanced frame books and the typed
# late-comer refusal asserted (non-zero exit on breach).
scale:
	dune exec bin/nemesis_sim.exe -- scale

# Multi-tenancy run: a CoW fleet forked from one frozen template over
# the compressed-RAM tier, half the fleet killed mid-run; one resident
# copy per shared page, balanced reference books and untouched
# bystander QoS asserted (non-zero exit on breach).
share:
	dune exec bin/nemesis_sim.exe -- tenancy -d 20 --tenants 12

# Registry hygiene: every registered extension name (on every axis)
# must be documented in README.md/DESIGN.md, and every lib/experiments
# module must be claimed by a registered experiment (non-zero exit on
# either breach). Must run from the repo root.
lint-registry:
	dune exec bin/nemesis_sim.exe -- lint-registry

check: fmt build test lint-registry smoke chaos crash remote failover erasure scale share
	@echo "check OK"

clean:
	dune clean
