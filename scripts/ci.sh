#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, tests.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q (default features)"
cargo test --workspace -q

echo "== cargo test -p pgss-ckpt -q (checkpoint codec + store, incl. corruption injection)"
cargo test -p pgss-ckpt -q

echo "== cargo test --test checkpoints -q (snapshot round-trip + bit-exact acceleration)"
cargo test --release --test checkpoints -q

echo "== campaign_bench self-tests (1 s runs per workload over the state-transfer APIs)"
# The benchmark is its own package; building it here means a change to an
# API it calls fails this gate instead of the next benchmark run.
cargo test --release --offline --manifest-path campaign_bench/Cargo.toml -q

echo "== statistical validation smoke (12-rep debug subset: all estimators + verdicts)"
cargo test --test statistical_validation -q

echo "== statistical validation (200-rep CI-coverage sweep, release)"
cargo test --release --test statistical_validation -q

echo "== metrics goldens (JSONL byte-identical across worker counts, schema pin)"
cargo test --release --test metrics_golden -q

echo "== campaign server (pgss-serve: SIGKILL resume, quotas, byte-identical reports)"
# Timeout-wrapped: a scheduler wedge in the daemon would otherwise hang
# the whole gate instead of failing it.
timeout 1800 cargo test --release -p pgss-serve -q
timeout 1800 cargo test --release --test serve_resilience --test serve_equivalence -q

echo "== wire-protocol fuzz (byte soup, truncated frames, deep nesting, slow loris)"
timeout 900 cargo test --release --test serve_protocol_fuzz -q

echo "== chaos suite (leases, drain, disk budget, torn writes, kill -9 mid-GC)"
timeout 1800 cargo test --release --features fault-inject --test serve_chaos -q

echo "== store-GC smoke (quarantine survives a sweep; budget frees after gc)"
timeout 600 cargo test --release -p pgss-ckpt -q -- gc_ budget_

echo "== pgss-stats property tests (merge algebra behind the metrics layer)"
cargo test --release -p pgss-stats --test properties -q

echo "== fault-injection suite (panic isolation, corruption quarantine, store I/O faults)"
cargo test --release --features fault-inject --test fault_injection -q
cargo test -p pgss-ckpt --features fault-inject -q
cargo test -p pgss --release --features fault-inject -q

echo "== coverage ratchet (cargo llvm-cov, when installed)"
if command -v cargo-llvm-cov >/dev/null 2>&1; then
    baseline=$(grep -v '^#' scripts/coverage-baseline.txt | tail -1)
    cov=$(cargo llvm-cov --workspace --summary-only --json -q |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["data"][0]["totals"]["lines"]["percent"])')
    python3 - "$cov" "$baseline" <<'EOF'
import sys
cov, base = float(sys.argv[1]), float(sys.argv[2])
floor = base - 0.5
print(f"line coverage {cov:.2f}% (baseline {base:.2f}%, ratchet floor {floor:.2f}%)")
if cov < floor:
    sys.exit("coverage regressed below the ratchet floor")
if cov > base + 1.0:
    print(f"coverage grew; consider raising scripts/coverage-baseline.txt to {cov:.1f}")
EOF
else
    echo "cargo-llvm-cov not installed; skipping coverage ratchet"
fi

echo "== perf ratchet (decoded core vs reference interpreter, when python3 is available)"
if command -v python3 >/dev/null 2>&1; then
    perf_out=$(mktemp -d)
    trap 'rm -rf "$perf_out"' EXIT
    cargo run --release -q -p pgss-bench --bin perf -- --smoke --out "$perf_out"
    baseline=$(grep -v '^#' scripts/perf-baseline.txt | tail -1)
    python3 - "$baseline" "$perf_out"/BENCH_*.json <<'EOF'
import json, math, sys

base = float(sys.argv[1])
speedups = []
for path in sys.argv[2:]:
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == 1, f"{path}: unknown schema {doc['schema']!r}"
    assert isinstance(doc["name"], str) and doc["name"], f"{path}: missing name"
    assert doc["modes"], f"{path}: empty modes array"
    for m in doc["modes"]:
        for key in ("mode", "ops", "decoded_wall_ns", "reference_wall_ns",
                    "decoded_ops_per_sec", "reference_ops_per_sec", "speedup"):
            assert key in m, f"{path}: mode entry missing {key!r}"
        assert m["ops"] > 0 and m["decoded_wall_ns"] and m["reference_wall_ns"], \
            f"{path}: degenerate {m['mode']} entry"
        if m["mode"] == "functional":
            speedups.append(m["speedup"])
assert speedups, "no functional-mode entries found"
geo = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
floor = base - 0.25
print(f"functional speedup geomean {geo:.2f}x over {len(speedups)} workloads "
      f"(baseline {base:.2f}x, ratchet floor {floor:.2f}x)")
if geo < floor:
    sys.exit("decoded-core throughput regressed below the ratchet floor")
if geo > base + 0.25:
    print(f"speedup grew; consider raising scripts/perf-baseline.txt to {geo:.2f}")
EOF
    rm -rf "$perf_out"
    trap - EXIT
else
    echo "python3 not installed; skipping perf ratchet"
fi

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "CI gate passed."
