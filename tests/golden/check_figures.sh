#!/bin/sh
# Run every figure of `isim-fig run all` at small knobs and compare
# what it writes with the committed fixture (tests/golden/figures/):
# each figure JSON byte for byte, and the SHA-256 of each stats
# manifest and of stdout, which also holds the printed tables. Names
# every file that differs, then fails.
# usage: check_figures.sh SOURCE_DIR WORK_DIR ISIM_FIG
set -e
src=$1 work=$2 fig=$3
golden=$src/tests/golden/figures
rm -rf "$work"
mkdir -p "$work"
# The knobs must match regenerate.sh.
"$fig" run all --txns 50 --warmup 20 --jobs 4 --quiet \
    --json-dir "$work/json" > "$work/stdout.txt"

failed=0
for want in "$golden"/*.json; do
    name=${want##*/}
    if ! cmp -s "$want" "$work/json/$name"; then
        echo "differs: $name"
        failed=1
    fi
done
while read -r sum name; do
    file=$work/json/$name
    [ "$name" = stdout.txt ] && file=$work/stdout.txt
    got=missing
    [ -f "$file" ] && got=$(sha256sum < "$file" | cut -d' ' -f1)
    if [ "$got" != "$sum" ]; then
        echo "differs: $name"
        failed=1
    fi
done < "$golden/digests.sha256"

# A figure the fixture does not know is a difference too.
(cd "$golden" && ls *.json && grep -v ' stdout.txt$' digests.sha256 |
    cut -d' ' -f3) | sort > "$work/want.list"
(cd "$work/json" && ls) | sort > "$work/got.list"
if ! cmp -s "$work/want.list" "$work/got.list"; then
    echo "the run wrote other files than the fixture holds:"
    diff "$work/want.list" "$work/got.list" || true
    failed=1
fi
if [ $failed -ne 0 ]; then
    echo "figures differ from tests/golden/figures;" \
         "if the change is intended, run tests/golden/regenerate.sh"
fi
exit $failed
