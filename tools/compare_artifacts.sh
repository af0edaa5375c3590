#!/usr/bin/env bash
# Byte-compare what two source trees of pucl write, for a pure refactor.
#
#   tools/compare_artifacts.sh PARENT_TREE CHANGE_TREE SEED...
#
# For each seed, each tree runs `gen-synthetic` (default sizes) twice into
# relative directories, so the two config.json files hold the same paths:
# once with the default 2 entity types (3 classes) and once with
# `--types 8` (9 classes, where `model.reduce_classes` takes numpy's own
# reduction). Both trees then run `pipeline` in all six modes, `evaluate`
# and an `annotate` of the test split with its dictionary on each of the
# PARENT tree's generated data sets. The `gen-synthetic --help` text and
# every command's stdout are compared too. manifest.json (timings) and
# voters.sha256 (a hash of the package sources) are skipped. Prints each
# path that differs and exits 1 if any does; the outputs are then kept.
set -euo pipefail

[ $# -ge 3 ] || { echo "usage: $0 PARENT_TREE CHANGE_TREE SEED..." >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
work=$(mktemp -d)
datasets=$(for seed in "$@"; do echo "$seed $seed-t8"; done)
modes=$(PYTHONPATH="$parent/src" python3 -c "from pucl.config import MODES; print(*MODES)")

pucl() {  # pucl TREE ARGS...: run TREE's sources in the current directory
    PYTHONPATH="$1/src" python3 -m pucl "${@:2}"
}

for side in parent change; do
    tree=${!side}
    mkdir -p "$work/$side/gen" "$work/$side/pipe"
    (cd "$work/$side/gen" && pucl "$tree" gen-synthetic --help > help.txt)
    for data in $datasets; do
        seed=${data%-t8} types=""
        [ "$data" = "$seed" ] || types="--types 8"
        (cd "$work/$side/gen" && pucl "$tree" gen-synthetic --out "data-$data" --seed "$seed" $types \
            > "stdout-$data.txt")
    done
done
for side in parent change; do
    tree=${!side}
    cd "$work/$side/pipe"
    for data in $datasets; do
        cp -r "$work/parent/gen/data-$data" .
        for mode in $modes; do
            pucl "$tree" pipeline --config "data-$data/config.json" --mode "$mode" --out "run-$data-$mode" \
                > "stdout-$data-$mode.txt"
        done
        pucl "$tree" evaluate --model "run-$data-full/model.bin" --test "data-$data/test.tsv" > "evaluate-$data.txt"
        pucl "$tree" annotate --dict "data-$data/dict.tsv" --in "data-$data/test.tsv" --out "annotated-$data.tsv" \
            > "annotate-$data.txt"
    done
done

cd "$work"
compared=0 differ=0
while read -r path; do
    compared=$((compared + 1))
    if ! cmp -s "parent/$path" "change/$path"; then
        echo "differs: $path"
        differ=$((differ + 1))
    fi
done < <( (cd parent && find . -type f; cd ../change && find . -type f) \
    | grep -v -e '/manifest\.json$' -e '/voters\.sha256$' | sort -u)

echo "$compared files compared, $differ differ"
if [ "$differ" -gt 0 ]; then
    echo "outputs kept in $work"
    exit 1
fi
rm -rf "$work"
