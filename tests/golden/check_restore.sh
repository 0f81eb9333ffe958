#!/bin/sh
# Restore the committed golden warm image and diff its stats against
# the golden manifest. Workload knobs are explicit so stray ISIM_*
# environment cannot change the fixture's configuration.
# usage: check_restore.sh SOURCE_DIR WORK_DIR RUN_CONFIG ISIM_STAT
set -e
src=$1 work=$2 run_config=$3 isim_stat=$4
mkdir -p "$work/ckpt"
gunzip -c "$src/tests/golden/ckpt/golden_tiny.ckpt.gz" \
    > "$work/ckpt/golden_tiny.ckpt"
"$run_config" "$src/tests/golden/tiny.cfg" --quiet \
    --txns 40 --warmup 10 --seed 7 \
    --from-ckpt "$work/ckpt" \
    --stats-out "$work/restored-stats.json"
"$isim_stat" diff "$src/tests/golden/tiny-stats.json" \
    "$work/restored-stats.json"
