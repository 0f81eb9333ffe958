#!/bin/sh
# Regenerate the golden fixtures after an intentional checkpoint-
# encoding or model change (docs/CHECKPOINT.md): rewrites the
# committed warm image (gzipped), the golden stats manifest the CI
# regression diffs against, and the figures fixture
# (tests/golden/figures/: every figure JSON plus the SHA-256 of each
# manifest and of stdout). Run from the repo root with a built tree.
set -e
# The knobs must match tiny.cfg and the CI step.
./build/tools/isim-fig config tests/golden/tiny.cfg --quiet \
    --txns 40 --warmup 10 --seed 7 \
    --save-ckpt tests/golden/ckpt \
    --stats-out tests/golden/tiny-stats.json
gzip -9 -f tests/golden/ckpt/golden_tiny.ckpt
echo "regenerated tests/golden/ckpt/golden_tiny.ckpt.gz and" \
     "tests/golden/tiny-stats.json"

# The knobs must match check_figures.sh.
fig=$(pwd)/build/tools/isim-fig
work=$(mktemp -d)
(cd "$work" && "$fig" run all --txns 50 --warmup 20 --jobs 4 --quiet \
    --json-dir json > stdout.txt)
rm -rf tests/golden/figures
mkdir tests/golden/figures
for f in "$work"/json/*.json; do
    case $f in
      *.stats.json) ;;
      *) cp "$f" tests/golden/figures/ ;;
    esac
done
(cd "$work/json" && sha256sum *.stats.json && cd .. &&
    sha256sum stdout.txt) > tests/golden/figures/digests.sha256
rm -rf "$work"
echo "regenerated tests/golden/figures/"
