#!/bin/sh
# Warm the golden fixture machine from scratch, save its image and
# compare it byte for byte with the committed golden image: a change
# that alters what a save writes fails here. Workload knobs are
# explicit so stray ISIM_* environment cannot change the fixture's
# configuration.
# usage: check_resave.sh SOURCE_DIR WORK_DIR RUN_CONFIG
set -e
src=$1 work=$2 run_config=$3
rm -rf "$work"
mkdir -p "$work/ckpt"
"$run_config" "$src/tests/golden/tiny.cfg" --quiet \
    --txns 40 --warmup 10 --seed 7 \
    --save-ckpt "$work/ckpt" > "$work/run.log"
gunzip -c "$src/tests/golden/ckpt/golden_tiny.ckpt.gz" \
    > "$work/golden_tiny.ckpt"
cmp "$work/golden_tiny.ckpt" "$work/ckpt/golden_tiny.ckpt"
