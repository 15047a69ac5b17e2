#!/usr/bin/env bash
# Vectorization guard for the numeric kernels and the Philox rounds
# behind the gradient noise (src/common/rng.cc). Each loop marked
# `// must vectorize` on its `for` line must vectorize under the
# library's -ffp-contract=off at both -O2 (the default RelWithDebInfo
# level) and -O3 (Release, which perfbench builds). At -O2 that means
# GCC's "loop vectorized" note on the marked line. At -O3 GCC may
# fully unroll a short fixed-trip loop first and then vectorize the
# straight-line copy, which it reports as "basic block part
# vectorized" on a line of the body instead. That note alone proves
# little: GCC also emits it when only the stores are packed and the
# values come from scalar code (a lane function left out of line, say).
# So at -O3 the body line must also show a vectorized SLP tree that
# reaches a load: load, compute and store all run on vectors.
# A bounds-checked operator[], a branch or an aliasing question in
# such a loop keeps it scalar without changing a single result bit,
# so no test would notice; this check does.
#
# Usage: tools/check_vectorized.sh   (from anywhere; CXX overrides g++,
# which must be GCC: -fopt-info is a GCC flag)
set -u

cd "$(dirname "$0")/.." || exit 1
cxx=${CXX:-g++}
files="src/tensor/kernels/precision.cc src/tensor/kernels/tanh.cc
src/tensor/layer_math.cc src/tensor/sgd.cc src/common/rng.cc"

say() { echo "check-vectorized: $*"; }

# Line numbers of the body of the loop whose `for` is on line $2 of
# file $1: the lines after it that are indented deeper than the `for`.
body_lines() {
    awk -v start="$2" '
        NR == start { match($0, /^ */); depth = RLENGTH; next }
        NR > start {
            match($0, /^ */)
            if ($0 ~ /^ *$/ || RLENGTH <= depth) exit
            print NR
        }' "$1"
}

# Whether the -fopt-info-vec-all notes ($notes) show line $2 of file
# $1 vectorized by basic-block SLP with a tree that contains a load
# (an "op template" reading an array element).
slp_from_load() {
    awk -v at="$1:$2:" '
        index($0, at) != 1 { next }
        /note: Vectorizing SLP tree:/ { tree = 1; next }
        tree && /note: op template: _[0-9]+ = [A-Za-z_][A-Za-z0-9_]*\[/ {
            load = 1
        }
        /optimized: basic block part vectorized/ {
            if (tree && load)
                found = 1
            tree = 0
            load = 0
        }
        END { exit !found }' <<< "$notes"
}

bad=0
for file in $files; do
    lines=$(grep -n '// must vectorize' "$file" | cut -d: -f1)
    if [ -z "$lines" ]; then
        say "$file: no loop is marked '// must vectorize'"
        bad=1
        continue
    fi
    for level in -O2 -O3; do
        info=-fopt-info-vec-optimized
        [ "$level" = -O3 ] && info=-fopt-info-vec-all
        if ! notes=$("$cxx" -std=c++20 "$level" -ffp-contract=off \
                "$info" -Isrc -c "$file" -o /dev/null 2>&1)
        then
            say "compile failed: $file at $level"
            echo "$notes"
            exit 1
        fi
        for line in $lines; do
            if grep -q "^$file:$line:[0-9]*: optimized: loop vectorized" \
                    <<< "$notes"; then
                say "ok   $file:$line at $level"
                continue
            fi
            slp=""
            if [ "$level" = -O3 ]; then
                for body in $(body_lines "$file" "$line"); do
                    if slp_from_load "$file" "$body"; then
                        slp=$body
                        break
                    fi
                done
            fi
            if [ -n "$slp" ]; then
                say "ok   $file:$line at $level (unrolled; body line $slp vectorized from its loads)"
            else
                say "FAIL $file:$line is not vectorized at $level"
                bad=1
            fi
        done
    done
done
exit $bad
