#!/usr/bin/env bash
# Tier-1 verification plus lint gates. Run from the repo root.
set -euo pipefail

cargo fmt --check
# --all-targets extends the gates (including clippy::unwrap_used, which
# every library crate warns on) to tests and examples; test modules
# allow-list unwrap explicitly. Every library crate also warns on
# unused_crate_dependencies, so -D warnings fails on a dependency that a
# crate declares but no longer uses.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::dbg_macro -D clippy::todo
# No orphaned vendored crate: `cargo tree -i` exits non-zero for a
# package nothing in the workspace depends on, so a stand-in left
# behind after its last user went fails here. Each vendor/ directory is
# named after its package.
for dir in vendor/*/; do
    name=$(basename "$dir")
    if ! cargo tree -q --offline --workspace -e all -i "$name" > /dev/null; then
        echo "vendor/$name: no workspace crate depends on it" >&2
        exit 1
    fi
done
# Static invariant catalog (DESIGN.md §10, §14): token rules (no
# HashMap/HashSet or wall-clock/entropy in model code, no NaN-panicking
# comparators, no float-literal equality, no panic!-family macros in
# library code) plus the semantic pass — unit-safety over identifier
# names (U1/U2), transitive replay determinism across crate boundaries
# (D4), and panic-reachability from public model APIs (P2). Runs before
# the test gates: a lint violation is cheaper to report than a flaked
# property suite is to debug. The JSON report lands in results/ for
# auditing; findings budgeted in lint_baseline.txt (currently none) are
# tolerated, anything else fails the build.
mkdir -p results
cargo build -q -p gsf-lint --release
if ./target/release/gsf-lint --format json --baseline lint_baseline.txt \
    > results/lint_report.json; then
    echo "gsf-lint: clean (report in results/lint_report.json)"
else
    status=$?
    cat results/lint_report.json
    echo "gsf-lint: non-baselined findings (see results/lint_report.json)" >&2
    exit "$status"
fi
# --locked: a manifest change committed without its Cargo.lock fails
# here instead of silently rewriting the lock file.
cargo build --release --locked
# --workspace: a bare `cargo test` from the root only tests the root
# package (integration suites), silently skipping every crate.
cargo test -q --workspace
# Fault-injection determinism is a hard guarantee (FaultModel::none()
# bit-identical; enabled models seed-deterministic): run its suite
# explicitly so a filtered or partial test run cannot mask a drift.
cargo test -q -p gsf-core --test fault_determinism
# The differential gate: the production replay (prepared trace,
# placement index, arena, shards) and every sizing path must stay bit
# for bit equal to the test oracle (linear scan, BTreeMap, plain
# bisection), faulted and fault-free, across policies, reset reuse and
# worker counts; the high-water-mark sizing shortcuts must return the
# oracle's plain-search answers.
cargo test -q -p gsf-cluster --test differential
# Allocation budget: after one warming replay the steady-state event
# loop must not allocate per event — a 10x-larger trace must allocate
# exactly as much as the small one. Runs under a counting global
# allocator in its own binary.
cargo test -q -p gsf-perf --test zero_alloc_replay
# Streamed-replay equivalence: evaluating from a chunked trace stream
# (bounded memory, no materialized Trace) must stay bit-identical to
# the in-memory path and share its cache entries. --include-ignored
# pulls in the fleet-scale 24k-VM fixture, which only runs here in
# release (the earlier `cargo build --release` makes this cheap).
cargo test -q --release -p gsf-core --test streamed_equivalence -- --include-ignored
# Every truncation and bit flip of a chunked file fails typed, never panics.
cargo test -q --release -p gsf-vmalloc --test chunk_mutation
# The benchmark is a workspace of its own, so the workspace gates above
# never compile it; build and test it here (every workload at smoke
# scale against the library's public sizing and replay calls).
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
# The benchmark's tests run at smoke scale; this checks the pinned
# full-scale digests. At seed 2024 each workload's outputs must match
# the digests pinned in benchmark/src/workloads.rs; the binary exits 1
# on a mismatch. `--seconds 0` keeps each run to its set-up, warm-up and
# minimum of timed iterations (~15 s for all four in release).
for workload in size24k sweep16 faults12k stream250k; do
    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml --bin gsf-benchmark -- \
        --workload "$workload" --seed 2024 --seconds 0
done
# The one-CPU path. On two or more CPUs a faulted sizing search looks
# one probe ahead on a helper thread; bound to one CPU, the run sees one
# available core and sizes without it. Both paths must reproduce the
# pinned faults12k digest. `taskset` binds only this one command.
if command -v taskset > /dev/null && [ "$(nproc)" -ge 2 ]; then
    taskset -c 0 cargo run --release --offline -q --manifest-path benchmark/Cargo.toml \
        --bin gsf-benchmark -- --workload faults12k --seed 2024 --seconds 0
fi
# Docs must build clean: public-API rustdoc (broken intra-doc links,
# links from public docs to private items, malformed HTML) is a release
# gate, not a warning. --workspace: a bare `cargo doc` documents only
# the root package, so the crates' own docs went unchecked.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
