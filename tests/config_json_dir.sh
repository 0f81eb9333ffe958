#!/bin/sh
# `isim-fig config --json-dir D` writes the figure JSON and its stats
# manifest into D, and that manifest is the one --stats-out writes for
# the same machine and knobs. The flags are the run's only input: with
# ISIM_JSON_DIR and ISIM_STATS_EPOCH exported, a run writes the same
# manifest and nothing else.
# usage: config_json_dir.sh ISIM_FIG SOURCE_DIR WORK_DIR (absolute paths)
set -e
fig=$1 src=$2 work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
knobs="--txns 20 --warmup 10 --seed 7 --quiet"
"$fig" config "$src/tests/golden/tiny.cfg" $knobs --json-dir D > /dev/null
"$fig" config "$src/tests/golden/tiny.cfg" $knobs \
    --stats-out stats.json > /dev/null
manifest=$(ls D/*.stats.json)
test "$(ls D | wc -l)" -eq 2
test -s "${manifest%.stats.json}.json"
cmp "$manifest" stats.json
ISIM_JSON_DIR=E ISIM_STATS_EPOCH=100000 \
    "$fig" config "$src/tests/golden/tiny.cfg" $knobs \
    --stats-out env.json > /dev/null
cmp env.json stats.json
test ! -e E
