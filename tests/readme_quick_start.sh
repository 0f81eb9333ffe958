#!/bin/sh
# Every ./build/ command of README.md's Quick start block runs against
# this build tree: `\` continuations joined, `# comments` dropped and
# `--txns 20 --warmup 10 --quiet` appended to the commands that run
# machines (`run`, `config`, `regions`; `list` and `dump-cfg` refuse
# run flags). The commands run in a work
# directory whose `build` is this build tree and whose other entries
# link to the source tree, so a README that names a deleted binary or
# an unknown flag fails here.
# usage: readme_quick_start.sh SOURCE_DIR BUILD_DIR WORK_DIR (absolute paths)
set -e
src=$1 bin=$2 work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
for entry in "$src"/*; do
    ln -s "$entry" .
done
rm -f build
ln -s "$bin" build
awk '/^## Quick start/ { block = 1; next }
     block && /^```sh/ { fence = 1; next }
     fence && /^```/ { exit }
     fence {
         if (sub(/\\$/, "")) { line = line $0; next }
         line = line $0
         sub(/[ \t]+#.*$/, "", line)
         if (line ~ /^\.\/build\//) print line
         line = ""
     }' "$src/README.md" > commands
test -s commands
while read -r command; do
    case $command in
    *isim-fig\ run\ * | *isim-fig\ config\ * | *isim-fig\ regions\ *)
        command="$command --txns 20 --warmup 10 --quiet" ;;
    esac
    echo "$ $command"
    sh -c "$command" < /dev/null > /dev/null
done < commands
