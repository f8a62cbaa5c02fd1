.PHONY: verify build test clippy lint lint-gate smoke golden chaos serve-smoke serve-soak perfbench-smoke no-artifacts bench-gate

# Full offline verification: release build, workspace tests, lints (clippy
# plus the dim-lint invariant engine), the golden-results harness, the
# chaos (fault-injection) harness, a quick end-to-end smoke of the
# experiment suite (with the metrics layer live), the serving-layer smoke
# (golden HTTP transcript over an ephemeral port), the overload/chaos soak
# gate, the benchmark's own tests plus one short suite pass and one short
# serve pass, and a check that no build artifacts are tracked. No network
# required.
verify: build test clippy lint golden chaos smoke serve-smoke serve-soak perfbench-smoke bench-gate lint-gate no-artifacts

build:
	cargo build --workspace --release

test:
	cargo test --workspace -q

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Byte-compares regenerated paper outputs against the committed transcripts
# in results/, and asserts the dim-verify invariants on the quick eval sets
# (repair never hurts; every mutation class is detected on every Q- set;
# see EXPERIMENTS.md "Dimensional verification gate"). After an
# intentional output change, refresh with
#   UPDATE_GOLDEN=1 cargo test --test golden_results
# and review the results/ diff.
golden:
	cargo test --release --test golden_results -q

smoke:
	cargo run --release -p dim-bench --bin all_experiments -- --quick --obs

# Deterministic fault-injection harness: rate 0 must be byte-identical to
# the clean run, rate > 0 must complete panic-free with a reproducible
# quarantine manifest (see tests/chaos.rs and DESIGN.md §9).
chaos:
	cargo test --release --test chaos -q

# Serving-layer smoke: runs the fixed request script against an in-process
# dim-serve on an ephemeral port and byte-compares the transcript with
# results/quick/serve.txt. Refresh after an intentional change with
#   UPDATE_GOLDEN=1 cargo test --test serve
serve-smoke:
	cargo test --release --test serve -q

# Overload/chaos soak gate: four short deterministic soaks of an
# overloaded in-process server (more clients than the queue bound plus the
# workers admit, tight deadlines). Asserts the clean run's deterministic
# block (outcome counts, response checksum, cache counts) equals the block
# pinned as PINNED in crates/serve/src/bin/serve_soak.rs, that it is
# byte-identical across identical runs and under a rate-0 connection-fault
# plan, and that a positive-rate plan (stall / partial-write /
# abrupt-close) is survived with zero panics, zero connections left open,
# and unchanged final response bytes (see EXPERIMENTS.md "Overload soak
# methodology"). After an intended change to served bytes or cache policy,
# copy the clean-1 block the failing run prints into PINNED and review the
# diff.
serve-soak:
	cargo run --release -p dim-serve --bin serve_soak

# The benchmark (perfbench/, a package of its own outside the workspace)
# compiles against the program crates: its tests plus one short untraced
# suite_quick pass, whose oracle byte-checks the suite output, catch an API
# break or output drift there. One short annotate_bulk pass runs its
# width-1 digest oracle, the only gate on the bulk annotate path, which
# reads the KB's naming dictionary. One short serve_miss pass and one short
# serve_hot pass run the serve oracle, which compares the digests of the
# server's responses with an App::handle replay of the same requests; the
# serve_hot oracle also requires a cache hit ratio of at least 90%, so
# cached responses cross the server's write path too.
perfbench-smoke:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload suite_quick --seconds 1 --trace 0
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload annotate_bulk --seconds 1 --trace 0
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload serve_miss --seconds 1 --trace 0
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload serve_hot --seconds 1 --trace 0

# The workspace invariant linter (crates/lint, DESIGN.md §11 and §16):
# the string- and comment-aware per-file rules (no-panic-hotpath,
# determinism, thread-discipline, relaxed-ordering, zero-dep, hot-alloc)
# plus the --deep workspace analyses over the cross-crate call graph
# (panic-reachability, lock-order). Exits nonzero on any
# error-severity finding; warnings print but do not gate. Also writes the
# machine-readable v2 report consumed alongside obs_report.json. Then
# fails if the dim-obs global switch comes back: a `TEST_LOCK`, or a call
# to dim_obs::{enable,disable,enabled,reset}, anywhere in the program or its
# tests (recording is always on; the two kept empty functions are defined
# unqualified in crates/obs, so their definitions do not match).
lint:
	cargo run --release -p dim-lint --bin dimlint -- --deep --json lint_report.json
	! grep -rnE 'TEST_LOCK|dim_obs::(enable|disable|enabled|reset)\b' crates src tests examples

# Deep-lint regression gate: a 20-sample median runtime budget for the
# full deep run, whose file pass runs on one thread (see EXPERIMENTS.md
# "Deep-lint gate").
lint-gate:
	cargo run --release -p dim-bench --bin lint_gate

# target/ must never be committed (it is in .gitignore; this catches
# force-adds and historical regressions).
no-artifacts:
	test -z "$$(git ls-files target/)"

# Thread-width regression gate: re-times the two batch benchmarks at
# widths 1 and 4 in-process and fails if the width-4 median is slower than
# width-1 beyond a 10% noise tolerance (see EXPERIMENTS.md "Thread-width
# regression gate"). Pins the ROADMAP item 1 invariant that parallelism
# must never hurt.
bench-gate:
	cargo run --release -p dim-bench --bin bench_gate
