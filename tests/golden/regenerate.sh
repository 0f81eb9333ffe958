#!/bin/sh
# Regenerate the golden-checkpoint fixture after an intentional
# checkpoint-encoding or model change (docs/CHECKPOINT.md): rewrites
# the committed warm image (gzipped) and the golden stats manifest
# the CI regression diffs against. Run from the repo root with a
# built tree.
set -e
# The knobs must match tiny.cfg and the CI step.
./build/tools/isim-fig config tests/golden/tiny.cfg --quiet \
    --txns 40 --warmup 10 --seed 7 \
    --save-ckpt tests/golden/ckpt \
    --stats-out tests/golden/tiny-stats.json
gzip -9 -f tests/golden/ckpt/golden_tiny.ckpt
echo "regenerated tests/golden/ckpt/golden_tiny.ckpt.gz and" \
     "tests/golden/tiny-stats.json"
