#!/bin/sh
# Restore the committed golden warm image and diff its stats against
# the golden manifest.
# usage: check_restore.sh SOURCE_DIR WORK_DIR ISIM_FIG ISIM_STAT
set -e
src=$1 work=$2 fig=$3 isim_stat=$4
mkdir -p "$work/ckpt"
gunzip -c "$src/tests/golden/ckpt/golden_tiny.ckpt.gz" \
    > "$work/ckpt/golden_tiny.ckpt"
"$fig" config "$src/tests/golden/tiny.cfg" --quiet \
    --txns 40 --warmup 10 --seed 7 \
    --from-ckpt "$work/ckpt" \
    --stats-out "$work/restored-stats.json"
"$isim_stat" diff "$src/tests/golden/tiny-stats.json" \
    "$work/restored-stats.json"
