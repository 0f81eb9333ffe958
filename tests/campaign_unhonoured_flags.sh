#!/bin/sh
# isim-campaign must refuse run options it cannot honour rather than
# accept and drop them: `run` and `expand` with each one exit non-zero
# and name the flag, and `run` writes neither its --out directory nor
# the flag's output.
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
for flag in --stats-epoch=1000 "--save-ckpt d" --trace-out=t.json; do
    name=${flag%%[= ]*}
    for command in run expand; do
        rc=0
        # $flag is split on purpose: "--save-ckpt d" is two arguments.
        # (The capture flags take only the --flag=VALUE form.)
        "$campaign" $command spec.json --out out $flag \
            > out.log 2> err.log || rc=$?
        if [ $rc -eq 0 ] || ! grep -q -- "$name" err.log ||
            [ -e out ] || [ -e d ] || [ -e t.json ]; then
            echo "$command did not refuse $flag (exit $rc):"
            cat err.log
            exit 1
        fi
    done
done
echo "every unhonoured flag refused"
