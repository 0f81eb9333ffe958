#!/bin/sh
# isim-campaign must refuse run options it cannot honour rather than
# accept and drop them: `run` and `expand` with each one exit non-zero
# and name the flag, and `run` writes neither its --out directory nor
# the flag's output. A malformed campaign flag is fatal (exit 1) like
# every run flag: exit 2 means a merged campaign with failed bars.
# usage: campaign_unhonoured_flags.sh ISIM_CAMPAIGN WORK_DIR (absolute paths)
set -e
campaign=$1 work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"
cat > spec.json <<'SPEC'
{
  "schema": "isim-campaign",
  "version": 1,
  "name": "ci-smoke",
  "figures": ["fig10-uni", "fig10-mp"],
  "seeds": [3, 4],
  "txns": 40,
  "warmup": 10
}
SPEC
for flag in --stats-epoch=1000 "--save-ckpt d" "--trace-bin t.bin"; do
    name=${flag%%[= ]*}
    for command in run expand; do
        rc=0
        # $flag is split on purpose: "--save-ckpt d" is two arguments.
        # Every flag, the capture flags included, takes both the
        # --flag=VALUE and the --flag VALUE form; both are tested.
        "$campaign" $command spec.json --out out $flag \
            > out.log 2> err.log || rc=$?
        if [ $rc -eq 0 ] || ! grep -q -- "$name" err.log ||
            [ -e out ] || [ -e d ] || [ -e t.bin ]; then
            echo "$command did not refuse $flag (exit $rc):"
            cat err.log
            exit 1
        fi
    done
done
# usage: malformed FLAG_NAME ARGS...
malformed() {
    name=$1
    shift
    rc=0
    "$campaign" run spec.json "$@" > out.log 2> err.log || rc=$?
    if [ $rc -ne 1 ] || ! grep -q -- "$name" err.log || [ -e out ]; then
        echo "run did not fail on $* with exit 1 (exit $rc):"
        cat err.log
        exit 1
    fi
}
malformed --stop-after --out out --stop-after x
malformed --out --out
echo "every unhonoured flag refused"
