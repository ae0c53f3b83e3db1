#!/bin/sh
# Builds the morsel-driven query engine under ThreadSanitizer and soaks
# its concurrent surfaces: per-chunk Filter/Project/probe/sort tasks
# sharing the input table's lazily materialised column cache, the
# parallel key-encode phase of GroupByAggregate, the per-output-column
# gather tasks of HashJoin, and the warehouse loader's parallel chunked
# table decode, plus the wide-table build's LDA/FM fit tasks racing the
# family fan-out. A data race here silently breaks the engine's central
# guarantee — bit-identical results at every chunk size and thread
# count — so TSan fails it in CI instead.
#
# Usage: scripts/tsan_query.sh [build-dir]   (default: build-tsan)
# The build dir is shared with the other tsan_*.sh harnesses so CI pays
# for one sanitizer configure/build, not several.
set -e

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTELCO_SANITIZE=thread
cmake --build "$BUILD_DIR" \
    --target telco_query_test telco_storage_test \
    telco_streaming_warehouse_test telco_features_test \
    telco_integration_test \
    -j "$(nproc)"
cd "$BUILD_DIR"

# The whole query-operator surface once: every operator runs morsel-
# parallel on the default pool, so the plain functional suites already
# exercise the chunk-task fan-out and chunk-order merges under TSan.
ctest -R 'Filter|Project|Join|Aggregate|Sort|Query|ZoneMap' \
    --output-on-failure -j "$(nproc)"

# Equivalence soak: the chunk-size × thread-count sweep is the densest
# concurrent workload in the tree (every operator, every chunk
# geometry, pools of 1/4/hw threads, shared lazy column caches).
# Repeat so TSan sees the interleavings where two chunk tasks race a
# column materialisation or a pool drains mid-merge.
ctest -R 'ChunkedEquivalence' --output-on-failure --repeat until-fail:3

# Warehouse soak: parallel per-table chunked decode + segment
# round-trips racing on the default pool.
ctest -R 'WarehouseIo|Segment' --output-on-failure --repeat until-fail:3

# Streaming-ingest soak: wave-parallel shard generation splicing into
# one ChunkSink, per-chunk encode/flush on the writer thread, and the
# chunk-size × thread-count byte-identity matrix of the streamed
# warehouse build.
ctest -R 'ChunkSink|StreamingWarehouse' --output-on-failure \
    --repeat until-fail:2

# Wide-table schedule: the LDA and FM fits run as pool tasks alongside
# the F2..F8 fan-out, F7/F8 block on their fit's future, the FM task
# reads the F1 table's lazy column cache while the joins read it too,
# and a failing input must drain every fit still in flight. These tests
# each sweep pool sizes and build orders (or error paths) themselves, so
# one pass is the soak; every pooled WideTable test costs ~10 s of
# simulation under TSan, too much to repeat the whole family.
ctest -R 'SimEquivalenceTest.WideTable|WideTableTest.(MissingPairMonth|FitSpans)' \
    --output-on-failure -j "$(nproc)"
