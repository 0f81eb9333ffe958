#!/bin/sh
# `isim-fig regions` prints a region row and the footprint line, and
# refuses a run option it cannot honour (--json-dir) by name, writing
# nothing.
# usage: regions_footprint.sh ISIM_FIG SOURCE_DIR WORK_DIR (absolute paths)
set -e
fig=$1 src=$2 work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
knobs="--txns 20 --warmup 10 --seed 7"
"$fig" regions "$src/tests/golden/tiny.cfg" $knobs > regions.out
cat regions.out
grep -Eq '^[a-z_]+ +(stripe|local|repl) +[0-9]+ +[0-9]+ ' regions.out
grep -Eq '^total unique footprint: [0-9]+ KB$' regions.out
rc=0
"$fig" regions "$src/tests/golden/tiny.cfg" $knobs --json-dir d \
    > out.log 2> err.log || rc=$?
if [ $rc -eq 0 ] || ! grep -q -- --json-dir err.log || [ -e d ]; then
    echo "regions did not refuse --json-dir (exit $rc):"
    cat err.log
    exit 1
fi
