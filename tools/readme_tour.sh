#!/usr/bin/env bash
# Run the README quick tour (N points per class, default 500), a 4-class leg
# (N/2 per class) and an `isomap --largest-component` leg (three bands of 100,
# the far one cut off) against the source tree SRC/src, logging every
# command's stdout, stderr and exit code.
#
#   tools/readme_tour.sh SRC OUT [N]
#
# OUT must be new or empty; the commands run inside it with relative paths,
# so two runs can be compared with one `diff -r OUT_A OUT_B` (files, stdout,
# stderr, exit codes and OUT/log/leftover_temporaries, the list of hidden
# .tmp files left under OUT, empty when every write finished or was undone).
# BLAS runs on one thread, so that a tree whose Isomap eigensolve does not
# pin its own thread count (or a BLAS without OpenBLAS's thread control)
# gives the same bytes on any core count.  Set PYTHON to choose the
# interpreter.
set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 SRC OUT [N]" >&2
    exit 2
fi
n=${3:-500}
case $n in
    '' | *[!0-9]* | 0* | 1)
        echo "$0: N must be an integer >= 2, got $n" >&2
        exit 2
        ;;
esac
src=$(cd "$1" && pwd) || exit 2
if [ ! -d "$src/src/topoclass" ]; then
    echo "$0: no $1/src/topoclass" >&2
    exit 2
fi
mkdir -p "$2" && out=$(cd "$2" && pwd) || exit 2
if [ -n "$(ls -A "$out")" ]; then
    echo "$0: $2 is not empty" >&2
    exit 2
fi
mkdir "$out/log"
cd "$out" || exit 2

export PYTHONPATH="$src/src" OPENBLAS_NUM_THREADS=1
step=0

# run NAME ARGS...: one topoclass command, logged as log/NN-NAME.{out,err}
# and a line "NN-NAME CODE" in log/exit_codes
run() {
    local name
    step=$((step + 1))
    name=$(printf '%02d-%s' "$step" "$1")
    shift
    "${PYTHON:-python3}" -m topoclass.cli "$@" >"log/$name.out" 2>"log/$name.err"
    echo "$name $?" >>log/exit_codes
}

run gen gen --annulus --n "$n" --seed 0 -o annulus.json
run train train annulus.json --paper-net --seed 0 --target-accuracy 1.0 -o model.json
run check-sep check-sep model.json annulus.json --out report.json
run trace trace model.json annulus.json --out-dir trace/
run train train annulus.json --dims 2,1,2 --seed 0 -o narrow.json
run witness witness narrow.json --out witness.json
run sweep-bottleneck sweep-bottleneck annulus.json --widths 1,2,3,4,5 --seeds 5 -o sweep.csv
run urysohn urysohn annulus.json --out-dir field/
run isomap isomap annulus.json --knn 10 --out-dir embed/

run gen gen --shells --bands 0:0.5,1:1.5,2:2.5,3:3.5 --n $((n / 2)) -o shells4.json
run train train shells4.json --dims 2,16,16,4 -o model4.json
run check-sep check-sep model4.json shells4.json --out report4.json
run urysohn urysohn shells4.json --out-dir field4/

run gen gen --shells --bands 0:0.9,1:2,50:51 --n 100 --seed 1 -o far.json
run isomap isomap far.json --knn 5 --largest-component --format csv --out-dir embed_far/

find . -name '.*.tmp' | LC_ALL=C sort >log/leftover_temporaries
cat log/exit_codes
