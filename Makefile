.PHONY: all build test bench bench-policy bench-chaos bench-crash bench-remote bench-failover bench-erasure bench-share bench-scale perfbench-smoke smoke chaos crash remote failover erasure scale share fmt lint-registry check clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Regenerate the machine-readable policy-comparison record.
bench-policy:
	dune exec bench/main.exe -- policy

# Regenerate the machine-readable chaos (fault-injection) verdict.
bench-chaos:
	dune exec bench/main.exe -- chaos

# Regenerate the machine-readable crash-recovery verdict.
bench-crash:
	dune exec bench/main.exe -- crash

# Regenerate the machine-readable remote-paging record: tiered
# (RAM cache -> remote memory -> disk) vs disk-only backing, per
# access pattern, fault-service latency and throughput side by side.
bench-remote:
	dune exec bench/main.exe -- remote

# Regenerate the machine-readable failover record: the hotspot
# workload against the disk, the healthy replicated fleet and the
# fleet with a node wiped at T/2 — post-wipe fault latency must stay
# within 2x the healthy remote path and far from the disk.
bench-failover:
	dune exec bench/main.exe -- failover

# Regenerate the machine-readable erasure record: hotspot fault
# latency against the disk, the R = 2 replicated fleet, the healthy
# (4,2) erasure fleet and the erasure fleet reading degraded after a
# node wipe (repair off, so every post-wipe read pays the k-shard
# reconstruction) — the parity read price and the degraded/disk gap
# side by side with per-node shard books.
bench-erasure:
	dune exec bench/main.exe -- erasure

# Regenerate the machine-readable sharing record: the 32-tenant CoW
# fleet against its unshared/no-zram control arm — resident-frame
# savings, CoW-break latency and compressed-tier hit economics.
bench-share:
	dune exec bench/main.exe -- share

# Regenerate the machine-readable scale-out record: frame-stack and
# EDF pick-next micro-benches at 8/64/256 clients (every client
# runnable, and three of them) against the seed's list-shaped
# baselines, an end-to-end 32-domain run, and the speed ledger: events,
# wall ms, us/event and words/event at 16/64/128 domains.
bench-scale:
	dune exec bench/main.exe -- scale

# Build the outside-in benchmark (perfbench/) and run it for one second
# on each workload. run.py exits non-zero when the build fails or any
# output check fails (books, same-seed reruns, traced vs untraced), so
# a library change that breaks the benchmark fails here.
perfbench-smoke:
	@for w in disk-paper many-domains fleet-degraded; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
			--trace 0 || exit 1; \
	done

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

# Remote-paging run: a mixed tiered/disk-only fleet with link chaos in
# the second half; zero bystander violations, balanced tier loss books
# and a byte-identical same-seed rerun asserted (non-zero exit on
# breach).
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
