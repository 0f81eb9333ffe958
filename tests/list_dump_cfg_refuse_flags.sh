#!/bin/sh
# `isim-fig list` and `dump-cfg` run no machine, so a run flag given
# to either is refused by name ("takes no arguments", exit 2) and
# writes nothing, while the bare command works.
# usage: list_dump_cfg_refuse_flags.sh ISIM_FIG SOURCE_DIR WORK_DIR (absolute paths)
set -e
fig=$1 work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
for command in list dump-cfg; do
    for flags in "--txns 5 --json-dir d" --quiet "--trace-bin t.bin"; do
        rc=0
        # $flags is split on purpose: "--txns 5" is two arguments.
        "$fig" $command $flags > out.log 2> err.log || rc=$?
        if [ $rc -ne 2 ] || ! grep -q "$command takes no arguments" err.log ||
            [ -e d ] || [ -e t.bin ]; then
            echo "$command did not refuse $flags (exit $rc):"
            cat err.log
            exit 1
        fi
    done
    "$fig" $command > out.log
    test -s out.log
done
echo "list and dump-cfg refuse every run flag"
