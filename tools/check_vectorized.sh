#!/usr/bin/env bash
# Vectorization guard for the numeric kernels. Each loop marked
# `// must vectorize` on its `for` line must vectorize under the
# library's -ffp-contract=off at both -O2 (the default RelWithDebInfo
# level) and -O3 (Release, which perfbench builds). At -O2 that means
# GCC's "loop vectorized" note on the marked line. At -O3 GCC may
# fully unroll a short fixed-trip loop first and then vectorize the
# straight-line copy, which it reports as "basic block part
# vectorized" on a line of the body instead; either note passes there.
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
src/tensor/layer_math.cc src/tensor/sgd.cc"

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

bad=0
for file in $files; do
    lines=$(grep -n '// must vectorize' "$file" | cut -d: -f1)
    if [ -z "$lines" ]; then
        say "$file: no loop is marked '// must vectorize'"
        bad=1
        continue
    fi
    for level in -O2 -O3; do
        if ! notes=$("$cxx" -std=c++20 "$level" -ffp-contract=off \
                -fopt-info-vec-optimized -Isrc -c "$file" \
                -o /dev/null 2>&1)
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
                    if grep -q "^$file:$body:[0-9]*: optimized: basic block part vectorized" \
                            <<< "$notes"; then
                        slp=$body
                        break
                    fi
                done
            fi
            if [ -n "$slp" ]; then
                say "ok   $file:$line at $level (unrolled; body line $slp vectorized)"
            else
                say "FAIL $file:$line is not vectorized at $level"
                bad=1
            fi
        done
    done
done
exit $bad
