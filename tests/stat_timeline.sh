#!/bin/sh
# `isim-stat timeline` prints a bar's manifest epoch rows as the
# timeline CSV: the header plus one line per row. An unknown bar, a
# manifest recorded without --stats-epoch and a forged non-integer
# delta each exit 1 with a message naming the file and the bar.
# usage: stat_timeline.sh ISIM_FIG ISIM_STAT SOURCE_DIR WORK_DIR (absolute paths)
set -e
fig=$1 stat=$2 src=$3 work=$4
rm -rf "$work"
mkdir -p "$work"
cd "$work"
knobs="--txns 20 --warmup 10 --seed 7 --quiet"
"$fig" config "$src/tests/golden/tiny.cfg" $knobs --stats-epoch=200000 \
    --stats-out m.json > /dev/null
"$fig" config "$src/tests/golden/tiny.cfg" $knobs \
    --stats-out plain.json > /dev/null
"$stat" timeline m.json golden-tiny > tl.csv
head -n 1 tl.csv | grep -q '^epoch,start_ns,end_ns,commits,tps,'
rows=$(grep -o '"epoch": ' m.json | wc -l)
test "$rows" -gt 1
test "$(wc -l < tl.csv)" -eq $((rows + 1))

# The first noc_bytes delta, forged to a fraction.
sed '0,/"noc_bytes": [0-9]*/s//"noc_bytes": 1.5/' m.json > forged.json
if cmp -s m.json forged.json; then
    echo "no noc_bytes delta to forge in m.json"
    exit 1
fi
refuse() {
    rc=0
    "$stat" timeline "$1" "$2" > out.log 2> err.log || rc=$?
    if [ $rc -ne 1 ] || ! grep -q "$1: .*$3" err.log; then
        echo "timeline $1 $2 was not refused with '$3' (exit $rc):"
        cat err.log
        exit 1
    fi
}
refuse m.json no-such-bar "no bar named 'no-such-bar'"
refuse plain.json golden-tiny "rerun with --stats-epoch"
refuse forged.json golden-tiny '"noc_bytes" is missing or not an unsigned'
echo "timeline renders and refuses"
