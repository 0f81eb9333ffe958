#!/bin/sh
# Warm the golden fixture machine from scratch, save its image and
# compare it byte for byte with the committed golden image: a change
# that alters what a save writes fails here.
# usage: check_resave.sh SOURCE_DIR WORK_DIR ISIM_FIG
set -e
src=$1 work=$2 fig=$3
rm -rf "$work"
mkdir -p "$work/ckpt"
"$fig" config "$src/tests/golden/tiny.cfg" --quiet \
    --txns 40 --warmup 10 --seed 7 \
    --save-ckpt "$work/ckpt" > "$work/run.log"
gunzip -c "$src/tests/golden/ckpt/golden_tiny.ckpt.gz" \
    > "$work/golden_tiny.ckpt"
cmp "$work/golden_tiny.ckpt" "$work/ckpt/golden_tiny.ckpt"
