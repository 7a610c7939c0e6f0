#!/usr/bin/env bash
# CI gate for the BrowserFlow workspace.
#
# Runs, in order:
#   1. grep gates: no allow(deprecated) in first-party code, no
#      panicking worker expects in the pipeline, no per-hash DBhash
#      probes inside Algorithm 1's candidate evaluation, no
#      explicit-nonce sealing outside the encryption module's own tests
#   2. rustfmt check over the first-party packages
#   3. clippy with warnings (and the clippy::perf group) denied over the
#      first-party packages
#   4. the tier-1 gate: release build + full test suite
#   5. the async pipeline integration tests under --release
#   6. the store persistence corruption matrix (torn-write recovery)
#   7. the fingerprint test suite twice more: pinned to the portable
#      scalar kernel (BF_FORCE_SCALAR=1) and on the runtime-detected
#      native kernel, so the SIMD and scalar paths both pass the full
#      unit + proptest suite on every host
#   8. a bounded fuzz smoke of both fuzz targets (store codec on
#      arbitrary bytes; incremental-vs-full fingerprint equivalence):
#      through `cargo fuzz` when a nightly toolchain with cargo-fuzz is
#      installed, otherwise directly against the vendored
#      libfuzzer-sys stand-in binaries
#   9. a release-mode smoke run of the keystroke fingerprint bench, which
#      regenerates BENCH_fingerprint.json and asserts the incremental
#      path stays >= 5x faster than full re-fingerprinting at 4 k chars,
#      that the SIMD full path stays >= BF_SIMD_FLOOR (default 2x)
#      faster than the scalar full path at 4 k and 16 k chars (skipped
#      with a loud warning on SIMD-less hosts), and that the engine
#      reports exactly the kernel each pass requested
#  10. a release-mode smoke run of the algorithm1 microbench, which
#      asserts the authoritative-index evaluation path stays >= 3x faster
#      than the probe-based reference on a 150 k-paragraph store
#  11. a release-mode smoke run of the tiered-persistence microbench,
#      which regenerates BENCH_tiered.json and asserts a v3 cold (mapped)
#      open stays >= 10x faster than a v2 full decode on a
#      150 k-paragraph store, with cold reports identical to hot
#  12. a release-mode smoke run of the batched-ingest microbench, which
#      regenerates BENCH_ingest.json and asserts batched ingest takes
#      >= BF_INGEST_FLOOR (default 3x) fewer stripe lock round-trips
#      than the per-paragraph observe loop at 15 k paragraphs, after
#      checking the two ingest shapes observation-equivalent; skipped
#      loudly if the release binary is absent
#  13. a daemon smoke test: boot a release bfd on a temp socket, drive it
#      with bfctl daemon (create -> observe -> check -> stats) including
#      a multi-paragraph --stdin observe that ships one ObserveBatch
#      frame, SIGTERM it, and assert clean exit plus a persisted tenant
#      state directory that a second bfd restores
#  14. a kill -9 durability smoke: boot bfd with --snapshot-interval,
#      drive a cross-service flow, wait past one interval, kill -9 the
#      daemon, and assert a rebinding bfd restores the tenant with the
#      check still blocking and the lineage graph intact (at most one
#      interval of work may be lost)
#  15. the exfiltration-sentinel covert-flow corpus, which regenerates
#      BENCH_sentinel.json and gates on recall >= 0.9 and precision
#      >= 0.8 (override with BF_SENTINEL_RECALL_FLOOR /
#      BF_SENTINEL_PRECISION_FLOOR); skipped loudly if the release
#      binary is absent
#  16. a release-mode smoke run of the multi-tenant service bench, which
#      regenerates BENCH_service.json and asserts the zero-silent-drop
#      ledger (sent == decisions + superseded + backpressure)
#
# The vendored shims under third_party/ are intentionally excluded from
# the fmt/clippy gates: they mirror upstream crate APIs and are not held
# to this repo's style.
set -euo pipefail
cd "$(dirname "$0")/.."

FIRST_PARTY=(
    browserflow-fingerprint
    browserflow-tdm
    browserflow-store
    browserflow-corpus
    browserflow-browser
    browserflow
    browserflow-daemon
    browserflow-cli
    browserflow-bench
    browserflow-examples
    browserflow-integration
    browserflow-fuzz
)

pkg_flags=()
for pkg in "${FIRST_PARTY[@]}"; do
    pkg_flags+=(-p "$pkg")
done

echo "==> grep gate: no allow(deprecated) in first-party code"
# The deprecated persistence shims of the 0.7.0 builder redesign were
# removed in 0.11.0, so nothing first-party may silence a deprecation:
# an allow(deprecated) anywhere is someone dodging a migration.
if grep -rn 'allow(deprecated)' crates examples tests --include='*.rs'; then
    echo 'error: allow(deprecated) in first-party code — migrate to the replacement API' >&2
    exit 1
fi
# The PR 2 check_upload/check_upload_batch wrappers are gone entirely; no
# call site or reintroduced definition may bring them back (doc-comment
# history and the bench_check_upload group name are fine).
if grep -rn '\.check_upload(\|\.check_upload_batch(\|fn check_upload' \
    crates examples tests --include='*.rs'; then
    echo 'error: check_upload/check_upload_batch was removed in 0.7.0 — use BrowserFlow::check_one/check_batch' >&2
    exit 1
fi

echo "==> grep gate: no panicking worker expects"
if grep -rn 'expect("worker alive")' crates examples tests; then
    echo 'error: pipeline reply paths must surface DeciderError, not panic' >&2
    exit 1
fi

echo "==> grep gate: evaluate_candidate must not probe DBhash per hash"
# The hot inner loop of Algorithm 1 works off the incrementally maintained
# authoritative index; a per-hash oldest_segment_with probe inside
# evaluate_candidate would reintroduce the pre-index cost the
# authoritative-set refactor removed (the probe_* reference impls keep the
# old derivation for equivalence tests and live outside this function).
if awk '/^pub\(crate\) fn evaluate_candidate\(/,/^}/' \
    crates/store/src/disclosure.rs | grep -n 'oldest_segment_with'; then
    echo 'error: evaluate_candidate probes DBhash per hash — use the authoritative index' >&2
    exit 1
fi

echo "==> grep gate: explicit-nonce sealing stays inside the encryption module"
# seal_with_nonce exists for deterministic test fixtures only; production
# sealing must go through the counter-based seal_auto so nonces are never
# reused under the same key.
if grep -rn 'seal_with_nonce' crates examples tests --include='*.rs' \
    | grep -v '^crates/store/src/encryption.rs:'; then
    echo 'error: seal_with_nonce call outside crates/store/src/encryption.rs — use seal_auto' >&2
    exit 1
fi

echo "==> cargo fmt --check (first-party)"
cargo fmt "${pkg_flags[@]}" -- --check

echo "==> cargo clippy -D warnings -D clippy::perf (first-party)"
cargo clippy "${pkg_flags[@]}" --all-targets -- -D warnings -D clippy::perf

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> pipeline tests under --release"
cargo test -q -p browserflow-integration --test pipeline --release

echo "==> persistence corruption matrix"
# Torn-write recovery: damaging one shard must lose exactly that shard,
# and a corrupt manifest must fail closed in both strict and lossy modes.
cargo test -q -p browserflow-store --test persistence

echo "==> fingerprint suite on the scalar kernel (BF_FORCE_SCALAR=1)"
# The proptest equivalence suites (winnow vs deque oracle, SIMD vs scalar
# hashes, incremental vs full) must pass with the portable kernel pinned…
BF_FORCE_SCALAR=1 cargo test -q -p browserflow-fingerprint
echo "==> fingerprint suite on the native kernel"
# …and again on whatever kernel this host dispatches to natively.
cargo test -q -p browserflow-fingerprint

echo "==> bounded fuzz smoke (store codec, incremental edits)"
# Prefers real cargo-fuzz (nightly + sanitizer + coverage feedback) when
# installed; otherwise falls back to the vendored libfuzzer-sys stand-in,
# which replays the checked-in seed corpora and runs bounded mutation
# rounds. A panic in either target fails the gate.
if cargo +nightly fuzz --version >/dev/null 2>&1; then
    cargo +nightly fuzz run fuzz_store_codec -- -runs=512
    cargo +nightly fuzz run fuzz_incremental_edits -- -runs=512
else
    echo 'WARNING: cargo-fuzz/nightly not installed — running the fuzz targets' >&2
    echo 'WARNING: against the vendored libfuzzer-sys stand-in (no sanitizer,' >&2
    echo 'WARNING: no coverage feedback). Install cargo-fuzz for real fuzzing.' >&2
    cargo run -q --release -p browserflow-fuzz --bin fuzz_store_codec -- \
        -runs=2048 fuzz/corpus/fuzz_store_codec
    cargo run -q --release -p browserflow-fuzz --bin fuzz_incremental_edits -- \
        -runs=2048 fuzz/corpus/fuzz_incremental_edits
fi

echo "==> keystroke fingerprint bench smoke run (release)"
# Regenerates BENCH_fingerprint.json; the binary itself asserts the
# incremental path is >= 5x faster at 4 k-char paragraphs, the SIMD gate
# (>= BF_SIMD_FLOOR, default 2x, at 4 k and 16 k chars, skipped loudly
# on SIMD-less hosts), and that the engine reports exactly the kernel
# each pass requested (pin_kernel).
cargo run -q --release -p browserflow-bench --bin bench_fingerprint
# The emitted report must carry the kernel column the comparisons were
# measured on.
grep -q '"kernel": "' BENCH_fingerprint.json

echo "==> algorithm1 microbench smoke run (release)"
# Old-vs-new candidate evaluation at 1.5k/15k/150k paragraphs; the binary
# asserts the authoritative-index path is >= 3x faster than the
# probe-based reference on the largest store.
cargo run -q --release -p browserflow-bench --bin bench_algorithm1

echo "==> tiered-persistence microbench smoke run (release)"
# Regenerates BENCH_tiered.json; the binary asserts cold-tier disclosure
# reports match the hot reference and that a v3 cold (mapped) open is
# >= 10x faster than a v2 full decode on the 150 k-paragraph store.
cargo run -q --release -p browserflow-bench --bin bench_tiered

echo "==> batched-ingest microbench smoke run (release)"
# Regenerates BENCH_ingest.json; the binary asserts batched ingest pays
# >= BF_INGEST_FLOOR (default 3x) fewer stripe lock round-trips than the
# per-paragraph observe loop at 15 k paragraphs (wall time is reported
# but not gated — single-core hosts see parity), after asserting both
# ingest shapes produce identical disclosure reports.
INGEST=target/release/bench_ingest
if [[ -x "$INGEST" ]]; then
    "$INGEST"
    grep -q '"lock_reduction"' BENCH_ingest.json
else
    echo 'WARNING: target/release/bench_ingest is not built — the batched-ingest' >&2
    echo 'WARNING: lock-reduction gate was SKIPPED. Run cargo build --release' >&2
    echo 'WARNING: and re-run ci.sh for full coverage.' >&2
fi

echo "==> daemon smoke test (bfd + bfctl daemon, SIGTERM drain, restore)"
# Boot a release bfd on a temp socket, drive the full tenant lifecycle
# over the wire, SIGTERM it, and assert a clean drain that persists the
# tenant — then boot a second bfd on the same state dir and assert it
# restores the tenant.
BFD=target/release/bfd
BFCTL=target/release/bfctl
SMOKE_DIR=$(mktemp -d)
SMOKE_SOCK="$SMOKE_DIR/bfd.sock"
cleanup_smoke() {
    if [[ -n "${BFD_PID:-}" ]] && kill -0 "$BFD_PID" 2>/dev/null; then
        kill -TERM "$BFD_PID" 2>/dev/null || true
        wait "$BFD_PID" 2>/dev/null || true
    fi
    rm -rf "$SMOKE_DIR"
    if [[ -n "${KILL_DIR:-}" ]]; then
        rm -rf "$KILL_DIR"
    fi
}
trap cleanup_smoke EXIT

"$BFD" --socket "$SMOKE_SOCK" --state-dir "$SMOKE_DIR/state" \
    2>"$SMOKE_DIR/bfd.log" &
BFD_PID=$!
for _ in $(seq 1 100); do
    if "$BFCTL" daemon --socket "$SMOKE_SOCK" ping >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
"$BFCTL" daemon --socket "$SMOKE_SOCK" ping >/dev/null

"$BFCTL" policy init > "$SMOKE_DIR/policy.json"
printf 'the quarterly interview notes are confidential\n' > "$SMOKE_DIR/doc.txt"
"$BFCTL" daemon --socket "$SMOKE_SOCK" --policy "$SMOKE_DIR/policy.json" \
    create smoke >/dev/null
"$BFCTL" daemon --socket "$SMOKE_SOCK" observe smoke itool notes \
    "$SMOKE_DIR/doc.txt" >/dev/null
# A multi-paragraph document over --stdin travels as one ObserveBatch
# frame; the tracked middle paragraph must then block on another service.
printf 'the opening paragraph sets out the background of the review\n\n%s\n\n%s\n' \
    'the candidate compensation discussion is strictly confidential' \
    'the closing paragraph thanks everyone for their patience here' \
    > "$SMOKE_DIR/memo.txt"
"$BFCTL" daemon --socket "$SMOKE_SOCK" observe smoke itool memo \
    --stdin < "$SMOKE_DIR/memo.txt" >/dev/null
printf 'the candidate compensation discussion is strictly confidential\n' \
    > "$SMOKE_DIR/probe.txt"
if ! "$BFCTL" daemon --socket "$SMOKE_SOCK" check smoke gdocs paste \
    "$SMOKE_DIR/probe.txt" | grep -qi block; then
    echo 'error: paragraph ingested via ObserveBatch does not block on gdocs' >&2
    cat "$SMOKE_DIR/bfd.log" >&2
    exit 1
fi
"$BFCTL" daemon --socket "$SMOKE_SOCK" check smoke gdocs leak \
    "$SMOKE_DIR/doc.txt" >/dev/null
"$BFCTL" daemon --socket "$SMOKE_SOCK" --json stats smoke \
    | grep -q '"completed"'

kill -TERM "$BFD_PID"
if ! wait "$BFD_PID"; then
    echo 'error: bfd did not exit cleanly after SIGTERM' >&2
    cat "$SMOKE_DIR/bfd.log" >&2
    exit 1
fi
unset BFD_PID
if [[ ! -d "$SMOKE_DIR/state/smoke" ]]; then
    echo 'error: SIGTERM drain did not persist tenant state' >&2
    cat "$SMOKE_DIR/bfd.log" >&2
    exit 1
fi

"$BFD" --socket "$SMOKE_SOCK" --state-dir "$SMOKE_DIR/state" \
    2>"$SMOKE_DIR/bfd2.log" &
BFD_PID=$!
for _ in $(seq 1 100); do
    if "$BFCTL" daemon --socket "$SMOKE_SOCK" ping >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
if ! "$BFCTL" daemon --socket "$SMOKE_SOCK" --json tenants | grep -q '"smoke"'; then
    echo 'error: restarted bfd did not restore the persisted tenant' >&2
    cat "$SMOKE_DIR/bfd2.log" >&2
    exit 1
fi
kill -TERM "$BFD_PID"
wait "$BFD_PID"
unset BFD_PID

echo "==> kill -9 durability smoke (bfd --snapshot-interval)"
# The background snapshot sweep must bound data loss to one interval:
# after a hard kill (no drain), a rebinding daemon restores the tenant
# from the last sweep — the check still blocks and the lineage edge from
# the pre-kill flow is still there.
KILL_DIR=$(mktemp -d)
KILL_SOCK="$KILL_DIR/bfd.sock"
"$BFD" --socket "$KILL_SOCK" --state-dir "$KILL_DIR/state" \
    --snapshot-interval 200 2>"$KILL_DIR/bfd.log" &
BFD_PID=$!
for _ in $(seq 1 100); do
    if "$BFCTL" daemon --socket "$KILL_SOCK" ping >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
"$BFCTL" policy init > "$KILL_DIR/policy.json"
printf 'the acquisition shortlist is strictly confidential material\n' \
    > "$KILL_DIR/doc.txt"
"$BFCTL" daemon --socket "$KILL_SOCK" --policy "$KILL_DIR/policy.json" \
    create hardkill >/dev/null
"$BFCTL" daemon --socket "$KILL_SOCK" observe hardkill itool notes \
    "$KILL_DIR/doc.txt" >/dev/null
"$BFCTL" daemon --socket "$KILL_SOCK" check hardkill gdocs leak \
    "$KILL_DIR/doc.txt" | grep -qi block
# Wait past one snapshot interval so the sweep has persisted the tenant,
# then kill without any chance to drain.
sleep 1.5
kill -9 "$BFD_PID"
wait "$BFD_PID" 2>/dev/null || true
unset BFD_PID
if [[ ! -d "$KILL_DIR/state/hardkill" ]]; then
    echo 'error: snapshot sweep did not persist tenant state before kill -9' >&2
    cat "$KILL_DIR/bfd.log" >&2
    rm -rf "$KILL_DIR"
    exit 1
fi
"$BFD" --socket "$KILL_SOCK" --state-dir "$KILL_DIR/state" \
    2>"$KILL_DIR/bfd2.log" &
BFD_PID=$!
for _ in $(seq 1 100); do
    if "$BFCTL" daemon --socket "$KILL_SOCK" ping >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
if ! "$BFCTL" daemon --socket "$KILL_SOCK" check hardkill gdocs leak2 \
    "$KILL_DIR/doc.txt" | grep -qi block; then
    echo 'error: restored tenant no longer blocks the tracked text after kill -9' >&2
    cat "$KILL_DIR/bfd2.log" >&2
    exit 1
fi
if ! "$BFCTL" daemon --socket "$KILL_SOCK" --json lineage hardkill \
    | grep -q '"clock"'; then
    echo 'error: restored tenant lost its lineage graph after kill -9' >&2
    cat "$KILL_DIR/bfd2.log" >&2
    exit 1
fi
kill -TERM "$BFD_PID"
wait "$BFD_PID"
unset BFD_PID
rm -rf "$KILL_DIR"

echo "==> exfiltration-sentinel covert-flow corpus (release)"
# Gates on detection quality over the scripted covert-flow scenarios;
# the binary asserts recall >= BF_SENTINEL_RECALL_FLOOR (default 0.9)
# and precision >= BF_SENTINEL_PRECISION_FLOOR (default 0.8) and exits
# non-zero when either floor is missed.
SENTINEL=target/release/bench_sentinel
if [[ -x "$SENTINEL" ]]; then
    "$SENTINEL"
    grep -q '"recall"' BENCH_sentinel.json
    grep -q '"precision"' BENCH_sentinel.json
else
    echo 'WARNING: target/release/bench_sentinel is not built — the sentinel' >&2
    echo 'WARNING: covert-flow corpus gate was SKIPPED. Run cargo build --release' >&2
    echo 'WARNING: and re-run ci.sh for full coverage.' >&2
fi

echo "==> multi-tenant service bench smoke run (release)"
# Regenerates BENCH_service.json; the binary itself asserts the
# zero-silent-drop ledger (sent == decisions + superseded + backpressure)
# and that the drain reports every tenant clean.
cargo run -q --release -p browserflow-bench --bin bench_service

echo "CI gate passed."
