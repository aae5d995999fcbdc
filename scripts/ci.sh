#!/usr/bin/env bash
# The full local CI gate: formatting, lints, and the whole test suite.
# Everything runs offline — the workspace has zero external
# dependencies, so no registry access is needed.
#
#   scripts/ci.sh            # fmt --check + clippy -D warnings + tests
#                            # + the copy census on a release build
#   scripts/ci.sh --fix      # apply formatting instead of checking it
#   scripts/ci.sh --full     # also run the full chaos sweep (40 cases) and
#                            # regenerate the three full BENCH_*.json
#                            # artifacts, which must match the committed ones
set -euo pipefail
cd "$(dirname "$0")/.."

# determinism by construction: simulator source keeps no hash-ordered
# container, so no iteration order can leak the host's RandomState
# into a run (ROADMAP 5(d)).
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

if [[ "${1:-}" == "--fix" ]]; then
    cargo fmt --all
else
    cargo fmt --all -- --check
fi

cargo clippy --workspace --all-targets -- -D warnings

cargo test --workspace -q

# copy census on optimised code: heap bytes allocated per payload byte
# delivered and allocations per message on the two-HUB stream mix, as
# counts that repeat exactly (DESIGN.md §9). The workspace pass above
# already ran it unoptimised; this one puts the trajectory in the log.
echo "ci: copy census (tests/tests/copy_budget.rs, release)"
cargo test --release -q -p nectar-integration --test copy_budget -- --nocapture \
    | grep '^copy_budget:'

# benchmark/ is its own package outside the workspace but path-depends
# on these crates: prove it still compiles against them and that its
# spec test still pins BENCHMARK.json.
echo "ci: benchmark package (compile + spec test)"
(cd benchmark && cargo test --offline -q)

# conformance: packetdrill-style wire scripts against the TCP/IP stack,
# with the per-socket oracle enabled (see DESIGN.md §11) — including
# the SACK, window-scaling and CUBIC scripts. Runs inside the workspace
# pass too; this standalone stage makes a script failure print its
# hex-dump diff prominently.
echo "ci: conformance script suite (crates/stack/tests/scripts/*.pkt)"
cargo test -q -p nectar-stack --test conformance

# windowed-RMP smoke: the sliding-window fast path delivers in order,
# exactly once, under loss + reorder (differential against the
# stop-and-wait window=1 model). Replay property failures with
# NECTAR_CHECK_SEED.
echo "ci: windowed-RMP smoke (property differential)"
cargo test -q -p nectar-stack --test props \
    -- rmp_windowed_inorder_exactly_once_under_impairment \
       tcp_sack_never_retransmits_sacked_bytes

# chaos smoke: randomized fault schedules against the 26-host fabric,
# with the conformance oracle armed on every socket (NECTAR_ORACLE=1
# keeps it on even for a release-profile run). The in-tree test already
# runs 20 cases; this stage re-runs a quick sweep standalone so a
# failure prints its replay seed prominently (rerun one case with
# NECTAR_CHECK_SEED=<seed>). --full widens it.
chaos_cases=5
if [[ "${1:-}" == "--full" ]]; then
    chaos_cases=40
fi
echo "ci: chaos sweep (${chaos_cases} cases, oracle on; replay failures with NECTAR_CHECK_SEED=<seed>)"
NECTAR_ORACLE=1 NECTAR_CHAOS_CASES="$chaos_cases" cargo test -q -p nectar-integration --test chaos \
    -- chaos_randomized_fault_schedules_preserve_invariants

# scratch space for the bench-artifact smokes below
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# --full regenerates the full artifacts, so they must also be the
# committed ones: two runs agreeing with each other does not notice a
# refactor that moved every number.
mode="${1:-}"
matches_committed() {
    if [[ "$mode" == "--full" ]]; then
        cmp "$1" "$(basename "$1")" \
            || { echo "ci: regenerated $(basename "$1") differs from the committed artifact"; exit 1; }
    fi
}

# load smoke: the quick capacity sweep (small fleet, tens of ms of sim
# time) must produce a well-formed BENCH_load.json, and — the
# determinism contract — two runs must emit byte-identical files.
# --full runs the whole five-transport sweep instead.
load_args=(--quick)
if [[ "${1:-}" == "--full" ]]; then
    load_args=()
fi
echo "ci: load sweep smoke (double run, byte-compared)"
NECTAR_BENCH_DIR="$smoke_dir/load1" \
    cargo bench -p nectar-bench --bench load_sweep -- "${load_args[@]+"${load_args[@]}"}"
NECTAR_BENCH_DIR="$smoke_dir/load2" \
    cargo bench -p nectar-bench --bench load_sweep -- "${load_args[@]+"${load_args[@]}"}"
cmp "$smoke_dir/load1/BENCH_load.json" "$smoke_dir/load2/BENCH_load.json" \
    || { echo "ci: BENCH_load.json differs between same-seed runs"; exit 1; }
matches_committed "$smoke_dir/load1/BENCH_load.json"
python3 - "$smoke_dir/load1/BENCH_load.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["variants"], "BENCH_load.json: no variants"
names = [v["variant"] for v in r["variants"]]
assert names == ["baseline", "fastpath"], f"unexpected variants: {names}"
for v in r["variants"]:
    assert v["transports"], f"{v['variant']}: no transports"
    for t in v["transports"]:
        assert t["points"], f"{v['variant']}/{t['transport']}: no load points"
        assert any(p["responses"] > 0 for p in t["points"]), \
            f"{v['variant']}/{t['transport']}: served nothing"
        assert t["knee_rps"] > 0, f"{v['variant']}/{t['transport']}: no capacity knee"
base, fast = r["variants"]
for tb, tf in zip(base["transports"], fast["transports"]):
    assert tf["knee_rps"] >= tb["knee_rps"], \
        f"{tb['transport']}: fastpath knee regressed ({tf['knee_rps']} < {tb['knee_rps']})"
for v in r["variants"]:
    print(f"ci: load artifact ok [{v['variant']}]:", ", ".join(
        f"{t['transport']} knee {t['knee_rps']} rps" for t in v["transports"]))
EOF

# scale smoke: the quick scale sweep (two-hub + two folded-Clos sizes,
# backpressure armed, chaos point under 2% loss) must emit a
# well-formed BENCH_scale.json, byte-identical across two runs. --full
# runs the 10k-endpoint three-stage sweep instead.
scale_args=(--quick)
if [[ "${1:-}" == "--full" ]]; then
    scale_args=()
fi
echo "ci: scale sweep smoke (double run, byte-compared)"
NECTAR_BENCH_DIR="$smoke_dir/scale1" \
    cargo bench -p nectar-bench --bench scale -- "${scale_args[@]+"${scale_args[@]}"}"
NECTAR_BENCH_DIR="$smoke_dir/scale2" \
    cargo bench -p nectar-bench --bench scale -- "${scale_args[@]+"${scale_args[@]}"}"
cmp "$smoke_dir/scale1/BENCH_scale.json" "$smoke_dir/scale2/BENCH_scale.json" \
    || { echo "ci: BENCH_scale.json differs between same-seed runs"; exit 1; }
matches_committed "$smoke_dir/scale1/BENCH_scale.json"
python3 - "$smoke_dir/scale1/BENCH_scale.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
sizes = r["sizes"]
assert len(sizes) >= 3, f"BENCH_scale.json: only {len(sizes)} fabric sizes"
hubs = [s["hubs"] for s in sizes]
assert hubs == sorted(hubs) and len(set(hubs)) == len(hubs), \
    f"fabric sizes not strictly growing: {hubs}"
assert any(s["stages"] >= 2 for s in sizes), "no multi-stage Clos size in the sweep"
for s in sizes:
    assert s["knee_rps"] > 0, f"{s['label']}: no capacity knee"
    assert s["points"] and any(p["responses"] > 0 for p in s["points"]), \
        f"{s['label']}: served nothing"
    assert len(s["stage_hotspots"]) == s["stages"], \
        f"{s['label']}: hotspot rollup covers {len(s['stage_hotspots'])}/{s['stages']} stages"
    for row in s["stage_hotspots"]:
        for key in ("rx_frames", "forwarded_frames", "dropped_frames",
                    "held_frames", "backlog_high_ns"):
            assert key in row, f"{s['label']}: stage hotspot missing {key}"
c = r["chaos"]
assert c["oracle_armed"] is True, "chaos ran without the conformance oracle"
assert c["conserved"] is True, "chaos ledger leaked requests"
assert c["responses"] > 0, "chaos fleet made no progress"
assert c["hubs"] == sizes[-1]["hubs"], "chaos did not run at the largest size"
print("ci: scale artifact ok:", ", ".join(
    f"{s['label']} ({s['hubs']} hubs) knee {s['knee_rps']} rps" for s in sizes),
    f"| chaos {c['responses']}/{c['intended']} under loss, conserved")
EOF

# collective smoke: the quick tree-vs-chain sweep (16 and 256 members)
# must emit a well-formed BENCH_collective.json, byte-identical across
# two runs, and the combining tree must beat the linear gather at the
# largest fleet swept. --full adds the 2048-member folded-Clos size.
coll_args=(--quick)
if [[ "${1:-}" == "--full" ]]; then
    coll_args=()
fi
echo "ci: collective sweep smoke (double run, byte-compared)"
NECTAR_BENCH_DIR="$smoke_dir/coll1" \
    cargo bench -p nectar-bench --bench collective -- "${coll_args[@]+"${coll_args[@]}"}"
NECTAR_BENCH_DIR="$smoke_dir/coll2" \
    cargo bench -p nectar-bench --bench collective -- "${coll_args[@]+"${coll_args[@]}"}"
cmp "$smoke_dir/coll1/BENCH_collective.json" "$smoke_dir/coll2/BENCH_collective.json" \
    || { echo "ci: BENCH_collective.json differs between same-seed runs"; exit 1; }
matches_committed "$smoke_dir/coll1/BENCH_collective.json"
python3 - "$smoke_dir/coll1/BENCH_collective.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
fleets = r["fleets"]
assert len(fleets) >= 2, f"BENCH_collective.json: only {len(fleets)} fleet sizes"
sizes = [f["fleet"] for f in fleets]
assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes), \
    f"fleet sizes not strictly growing: {sizes}"
assert sizes[-1] >= 256, f"largest fleet {sizes[-1]} below the 256-member bar"
for f in fleets:
    for shape in ("tree", "chain"):
        s = f[shape]
        assert s["per_epoch_ns"] > 0, f"{f['label']}/{shape}: no latency recorded"
        n = f["fleet"]
        assert s["reduced_value"] == n * (n + 1) // 2, \
            f"{f['label']}/{shape}: wrong reduction value"
    assert f["tree"]["depth"] < f["chain"]["depth"], \
        f"{f['label']}: tree not log-depth"
    # interior combining: the root hears one Arrive per child per
    # epoch, never one per descendant
    assert f["tree"]["root_arrives_rx"] <= r["fanout"] * r["epochs"], \
        f"{f['label']}: root heard uncombined arrives"
largest = fleets[-1]
assert largest["tree"]["per_epoch_ns"] < largest["chain"]["per_epoch_ns"], \
    f"{largest['label']}: combining tree no faster than the linear gather"
print("ci: collective artifact ok:", ", ".join(
    f"{f['label']} tree {f['tree']['per_epoch_ns'] // 1000} µs "
    f"vs chain {f['chain']['per_epoch_ns'] // 1000} µs" for f in fleets))
EOF

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
