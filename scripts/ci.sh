#!/usr/bin/env bash
# The full local CI gate: formatting, lints, and the whole test suite.
# Everything runs offline — the workspace has zero external
# dependencies, so no registry access is needed.
#
#   scripts/ci.sh            # fmt --check + clippy -D warnings + tests
#                            # + the copy and footprint censuses on a
#                            # release build
#   scripts/ci.sh --fix      # apply formatting instead of checking it
#   scripts/ci.sh --full     # also run the full chaos sweep (40 cases) and
#                            # regenerate the three full BENCH_*.json
#                            # artifacts, which must match the committed ones
set -euo pipefail
cd "$(dirname "$0")/.."

# determinism by construction: simulator source keeps no hash-ordered
# container, so no iteration order can leak the host's RandomState
# into a run.
if grep -rnE 'Hash(Map|Set)' crates/*/src; then
    echo "ci: HashMap/HashSet in crates/*/src — use BTreeMap/BTreeSet or a Vec"
    exit 1
fi

# the TCP byte queues copy by slice: a payload walked through an
# iterator one byte at a time was 40 % of stream_twohub's wall time
# (EXPERIMENTS.md "byte path").
if grep -rnE '\.copied\(\)\.collect|drain\([^)]*\)\.collect' crates/stack/src/tcp; then
    echo "ci: per-byte payload copy in crates/stack/src/tcp — copy by slice (as_slices, extend_from_slice)"
    exit 1
fi

# one JSON writer: every snapshot and BENCH_*.json artifact is rendered
# by crates/sim/src/json.rs, so an escaped key literal (\"name\":) in
# any other source file is a hand-rolled emitter coming back.
if grep -rnE '\\"[a-z_0-9]+\\":' crates/*/src crates/bench/benches \
    | grep -v '^crates/sim/src/json\.rs:'; then
    echo "ci: JSON built by hand outside crates/sim/src/json.rs — use nectar_sim::json::Json"
    exit 1
fi

# one wait rule: a protocol thread ends its burst through `wait`, which
# blocks on the thread's condition alone and only once its mailboxes
# are empty — so a request left past the burst budget is never
# stranded, and the board's timer interrupt is the only deadline wake
# (DESIGN.md §10). `Step::Block` also matches `Step::BlockTimeout`.
if awk '/^fn wait\(/ { in_wait = 1 }
        in_wait && /^}/ { in_wait = 0; next }
        !in_wait && /Step::Block/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' crates/cab/src/proto.rs; then
    echo 'ci: Step::Block outside `fn wait` in crates/cab/src/proto.rs — protocol threads end their burst through `wait`'
    exit 1
fi

# one CPU accountant: the CAB and the host charge a burst through
# nectar_sim::cpu, whose `Cpu::finish` is the only place a CPU's
# cursor and busy meter advance (DESIGN.md "burst-atomic execution").
if grep -rnE 'cpu_busy \+=|cursor = t \+|charged \+=' crates/*/src \
    | grep -v '^crates/sim/src/cpu\.rs:' \
    || grep -rn 'HostStepStatus' crates/*/src; then
    echo 'ci: burst bookkeeping outside crates/sim/src/cpu.rs — charge a `Burst` and end it with `Cpu::finish`'
    exit 1
fi

# one deadline index: every per-instance timer (a CAB thread's sleep, a
# TCP socket's, RMP channel's, request-response client's retransmit) is
# kept in nectar_sim::Deadlines; the event queue is the only other heap
# (DESIGN.md §9).
if grep -rn 'BinaryHeap' crates/*/src \
    | grep -vE '^crates/sim/src/(queue|deadlines)\.rs:' \
    || grep -rn 'DeadlineCache' crates/*/src; then
    echo 'ci: a timer heap outside crates/sim/src/{queue,deadlines}.rs — keep deadlines in `nectar_sim::Deadlines`'
    exit 1
fi

if [[ "${1:-}" == "--fix" ]]; then
    cargo fmt --all
else
    cargo fmt --all -- --check
fi

cargo clippy --workspace --all-targets -- -D warnings

cargo test --workspace -q

# copy census on optimised code: heap bytes allocated per payload byte
# delivered and allocations per message on the two-HUB stream mix, as
# counts that repeat exactly (DESIGN.md §9), and beside it the set-up
# census: allocations and heap bytes to build the stream_twohub world
# and one rpc_mixed fleet — the deterministic witness that set-up did
# not grow, where wall-clock set-up time flips between process-level
# modes. The workspace pass above already ran both unoptimised; this
# one puts the trajectory in the log.
echo "ci: copy + set-up census (tests/tests/copy_budget.rs, release)"
cargo test --release -q -p nectar-integration --test copy_budget -- --nocapture \
    | grep -E '^(copy_budget|setup_census):'
# ...and the set-up footprint beside it: backed CAB data memory and
# distinct route tables of the 432-CAB clos_fleet world, so an image
# allocated whole or a route table per CAB comes back by name.
echo "ci: footprint census (tests/tests/footprint.rs, release)"
cargo test --release -q -p nectar-integration --test footprint -- --nocapture \
    | grep '^footprint:'

# benchmark/ is its own package outside the workspace but path-depends
# on these crates: prove it still compiles against them and that its
# spec test still pins BENCHMARK.json.
echo "ci: benchmark package (compile + spec test)"
(cd benchmark && cargo test --offline -q)

# conformance: packetdrill-style wire scripts against the TCP/IP stack,
# with the per-socket oracle enabled (see DESIGN.md §11) — including
# the SACK, window-scaling and slow-start scripts and the tail-standoff
# pin of EXPERIMENTS.md deviation 5. Runs inside the workspace
# pass too; this standalone stage makes a script failure print its
# hex-dump diff prominently.
echo "ci: conformance script suite (crates/stack/tests/scripts/*.pkt)"
cargo test -q -p nectar-stack --test conformance

# windowed-RMP smoke: the sliding-window fast path delivers in order,
# exactly once, under loss + reorder (differential against the
# stop-and-wait window=1 model). Replay property failures with
# NECTAR_CHECK_SEED. The TCP wire-transcript digest pins every segment
# the socket emits over fixed lossy transfers, so a socket refactor
# that moves a byte or a timer fails here by name.
echo "ci: windowed-RMP smoke (property differential) + TCP wire transcript"
cargo test -q -p nectar-stack --test props \
    -- rmp_windowed_inorder_exactly_once_under_impairment \
       tcp_sack_never_retransmits_sacked_bytes \
       tcp_wire_transcript_is_pinned

# chaos smoke: randomized fault schedules against the 26-host fabric,
# with the conformance oracle armed on every socket (the chaos config
# sets `Config::oracle`). The in-tree test already runs 20 cases; this
# stage re-runs a quick sweep standalone so a failure prints its replay
# seed prominently (rerun one case with NECTAR_CHECK_SEED=<seed>).
# --full widens it.
chaos_cases=5
if [[ "${1:-}" == "--full" ]]; then
    chaos_cases=40
fi
echo "ci: chaos sweep (${chaos_cases} cases, oracle on; replay failures with NECTAR_CHECK_SEED=<seed>)"
NECTAR_CHAOS_CASES="$chaos_cases" cargo test -q -p nectar-integration --test chaos \
    -- chaos_randomized_fault_schedules_preserve_invariants

# scratch space for the smokes below
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# paper smoke: the eight paper targets assert their own claims (Table
# 1's rows, the scalars, the mailbox-mode ablation's ordering, every
# driver finishing its transfer) and exit nonzero if one fails; two
# runs of each must print byte-identical tables.
echo "ci: paper smoke (eight paper targets, double run, stdout byte-compared)"
for bench in table1 fig6 fig7 fig8 scalars \
    ablation_interrupt_vs_thread ablation_mailbox_mode ablation_upcall; do
    for run in 1 2; do
        cargo bench -q -p nectar-bench --bench "$bench" > "$smoke_dir/$bench$run.txt"
    done
    cmp "$smoke_dir/${bench}1.txt" "$smoke_dir/${bench}2.txt" \
        || { echo "ci: $bench printed differently on a same-seed rerun"; exit 1; }
done

# Bench-artifact smokes. Each bench asserts what its artifact claims on
# its typed results and exits nonzero before writing if a claim fails;
# here two same-seed runs must emit byte-identical files — the
# determinism contract. Default mode runs each bench's --quick
# configuration; --full runs the full one, whose artifact must also be
# the committed one: two runs agreeing with each other does not notice
# a refactor that moved every number.
mode="${1:-}"
bench_args=(--quick)
if [[ "$mode" == "--full" ]]; then
    bench_args=()
fi
artifact_smoke() { # <bench target> <artifact>
    echo "ci: $1 smoke (double run, byte-compared)"
    for run in 1 2; do
        NECTAR_BENCH_DIR="$smoke_dir/$1$run" \
            cargo bench -p nectar-bench --bench "$1" -- "${bench_args[@]+"${bench_args[@]}"}"
    done
    cmp "$smoke_dir/${1}1/$2" "$smoke_dir/${1}2/$2" \
        || { echo "ci: $2 differs between same-seed runs"; exit 1; }
    if [[ "$mode" == "--full" ]]; then
        cmp "$smoke_dir/${1}1/$2" "$2" \
            || { echo "ci: regenerated $2 differs from the committed artifact"; exit 1; }
    fi
}
# capacity sweep: every transport of both variants served and has a
# knee, the fast path moves no knee down (--full: all five transports)
artifact_smoke load_sweep BENCH_load.json
# scale sweep, backpressure armed: growing fabrics with a multi-stage
# one, a knee and a full hotspot rollup per size, a chaos point under
# 2% loss conserved with the oracle armed (--full: 10k endpoints)
artifact_smoke scale BENCH_scale.json
# tree vs chain: right reduction value, log-depth tree, interior
# combining at the root, tree beats the linear gather from 256 members
# up (--full adds the 2048-member folded Clos)
artifact_smoke collective BENCH_collective.json

# event-growth guard: one live self-wake per node means steady traffic
# costs a steady number of events. The repo benchmark's traced
# stream_twohub run reports the wall time of its last 300 ms slice over
# its second (sim.slice_wall_ratio: ~1 when flat, ~10 when superseded
# wakeups live on as poll chains) and the share of scheduled events
# cancelled before firing (0 when nothing is ever superseded).
echo "ci: event-growth guard (benchmark stream_twohub, traced)"
bash benchmark/run.sh --workload stream_twohub --seed 13 --seconds 3 --trace 1 \
    | tail -n 1 > "$smoke_dir/stream_twohub.json"
python3 - "$smoke_dir/stream_twohub.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["correct"] is True and r["failed"] == 0, "stream_twohub: run not correct"
ratio = r["metrics"]["sim.slice_wall_ratio"]["value"]
cancelled = r["metrics"]["sim.cancelled_share"]["value"]
assert ratio < 1.5, f"stream_twohub: wall time per slice grew {ratio:.2f}x over the run"
assert cancelled > 0, "stream_twohub: no superseded wakeup was ever cancelled"
print(f"ci: event growth ok: slice_wall_ratio {ratio:.2f}, cancelled_share {cancelled:.3f}")
EOF

# run-to-completion guard: the paper drivers stop when their transfer
# does (DESIGN.md §9), and stopping there must not move what they
# measure. Simulated values only — they repeat exactly at a fixed seed
# on any machine — and no wall-clock threshold. Host CPU per operation
# is the tell: ~317 µs when a world stops with its transfer, ~28 000 µs
# when an echo server polls on to a 60 s deadline.
echo "ci: run-to-completion guard (benchmark paper_pair, traced)"
bash benchmark/run.sh --workload paper_pair --seed 13 --seconds 3 --trace 1 \
    | tail -n 1 > "$smoke_dir/paper_pair.json"
python3 - "$smoke_dir/paper_pair.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["correct"] is True and r["failed"] == 0, "paper_pair: run not correct"
m = {k: v["value"] for k, v in r["metrics"].items()}
for key, want in (("paper.host_dgram_rtt_us", 342),
                  ("paper.host_rmp_8k_mbps", 31.32890667202073),
                  ("paper.err_pct", 10.8684730925727)):
    assert m[key] == want, f"paper_pair: {key} moved: {m[key]!r} != {want!r}"
host_us = m["host.sim_cpu_us_per_op"]
assert host_us < 1000, \
    f"paper_pair: {host_us:.0f} simulated host-CPU us per operation: a driver ran on past its transfer"
print(f"ci: run to completion ok: host datagram RTT {m['paper.host_dgram_rtt_us']} us, "
      f"host CPU {host_us:.0f} us per op")
EOF

echo "ci: all green"
