#!/usr/bin/env bash
# Long differential-fuzz run for nightly/local use.
#
# The CI smoke step covers a few hundred seeded rounds in ~30 s; this
# script is the deep end: thousands of rounds, larger graphs, the
# metamorphic transforms on every 10th round, engine-level incumbent
# certification, an epsilon (anytime-mode) sweep, and the parser
# properties under a fresh hypothesis seed.  Minimized
# reproducers for any failure land in $OUT_DIR; replay one with the
# `repro verify` command printed inside its .json record.
#
# Environment knobs (all optional):
#   ROUNDS      rounds per pass            (default 2000)
#   SEED        first seed of the pass     (default: day-of-year * 10000)
#   MAX_NODES   largest random graph       (default 24)
#   OUT_DIR     reproducer directory       (default fuzz-failures)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

ROUNDS="${ROUNDS:-2000}"
SEED="${SEED:-$((10#$(date +%j) * 10000))}"
MAX_NODES="${MAX_NODES:-24}"
OUT_DIR="${OUT_DIR:-fuzz-failures}"

echo "== exact differential sweep (seed $SEED, $ROUNDS rounds) =="
python -m repro fuzz --seed "$SEED" --rounds "$ROUNDS" \
    --max-nodes "$MAX_NODES" --metamorphic 10 --debug-certify \
    --out "$OUT_DIR"

echo "== anytime-mode sweep (epsilon 0.5) =="
python -m repro fuzz --seed "$((SEED + ROUNDS))" --rounds "$((ROUNDS / 4))" \
    --max-nodes "$MAX_NODES" --epsilon 0.5 --out "$OUT_DIR"

echo "== parser properties (hypothesis seed $SEED) =="
# The wire-frame decoder, shared-memory segment, store-manifest, CRC
# container, result-cache and checkpoint-record parsers under mutated
# bytes: each must load or raise a typed ReproError.  Seeded from $SEED,
# so each night draws fresh mutations.
python -m pytest -q -p no:cacheprovider --hypothesis-seed "$SEED" \
    "tests/server/test_protocol.py::test_mutated_stream_decodes_or_raises_a_protocol_error" \
    "tests/graph/test_shm.py::test_mutated_header_and_metadata_load_the_donor_or_raise_typed" \
    "tests/store/test_manifest.py::test_every_manifest_edit_loads_or_raises_a_store_error" \
    "tests/store/test_format.py::test_mutated_container_reads_or_raises_a_store_error" \
    "tests/store/test_result_cache.py::test_mutated_result_cache_loads_or_raises_a_store_error" \
    "tests/service/test_durability.py::test_mutated_checkpoint_loads_or_raises_a_store_error"

echo "== crash-recovery rounds (kill -9 + checkpoint resume) =="
# Each round SIGKILLs a process worker mid-search and requires the
# respawned worker to resume from its checkpoint and match an
# uninterrupted run exactly (see scripts/chaos_smoke.py).
CHAOS_ROUNDS="${CHAOS_ROUNDS:-5}"
for round in $(seq 1 "$CHAOS_ROUNDS"); do
    echo "-- chaos round $round/$CHAOS_ROUNDS"
    python scripts/chaos_smoke.py
done

echo "nightly fuzz clean: no disagreements, no certification failures," \
     "crash recovery lossless across $CHAOS_ROUNDS chaos rounds"
