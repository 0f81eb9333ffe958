#!/bin/sh
# Every key the emitter writes parses back: the default machine's full
# key dump and each shipped examples/configs/*.cfg run end to end.
# usage: dump_cfg_configs_run.sh ISIM_FIG SOURCE_DIR WORK_DIR (absolute paths)
set -e
fig=$1 src=$2 work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
"$fig" dump-cfg > default.cfg
for cfg in default.cfg "$src"/examples/configs/*.cfg; do
    echo "$cfg"
    "$fig" config "$cfg" --quiet --txns 20 --warmup 10 > /dev/null
done
