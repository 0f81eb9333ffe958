#!/bin/sh
# Figures planned together must print and write exactly what they do
# run one at a time. fig07's "Base 8M1w" is fig05's bar 3, so the
# plain pass checks the alias copy and the shared lease threads; the
# observed pass captures that bar's events (--trace-bar=3), so it
# must run on its own, never aliased.
# usage: cross_figure_identity.sh ISIM_FIG WORK_DIR (absolute paths)
set -e
fig=$1 work=$2
rm -rf "$work"
for pass in plain observed; do
    mkdir -p "$work/$pass"
    cd "$work/$pass"
    knobs="--txns 20 --warmup 10 --quiet"
    a= b=
    if [ $pass = observed ]; then
        knobs="$knobs --trace-bar=3"
        a=--trace-bin=A.bin b=--trace-bin=B.bin
    fi
    "$fig" run fig05 fig07 $knobs --jobs 3 --json-dir A $a > A.out
    for id in fig05 fig07; do
        "$fig" run $id $knobs --json-dir B $b >> B.out
    done
    cmp A.out B.out
    diff -r A B
done
cmp A.bin B.bin
