#!/usr/bin/env bash
# Vectorization guard for the numeric kernels. Each loop marked
# `// must vectorize` on its `for` line must get GCC's "loop
# vectorized" note at -O2 (the default RelWithDebInfo level) under the
# library's -ffp-contract=off. A bounds-checked operator[], a branch or
# an aliasing question in such a loop keeps it scalar without changing
# a single result bit, so no test would notice; this check does.
#
# Usage: tools/check_vectorized.sh   (from anywhere; CXX overrides g++,
# which must be GCC: -fopt-info is a GCC flag)
set -u

cd "$(dirname "$0")/.." || exit 1
cxx=${CXX:-g++}
files="src/tensor/kernels/precision.cc src/tensor/kernels/tanh.cc
src/tensor/layer_math.cc src/tensor/sgd.cc"

say() { echo "check-vectorized: $*"; }

bad=0
for file in $files; do
    if ! notes=$("$cxx" -std=c++20 -O2 -ffp-contract=off \
            -fopt-info-vec-optimized -Isrc -c "$file" -o /dev/null 2>&1)
    then
        say "compile failed: $file"
        echo "$notes"
        exit 1
    fi
    lines=$(grep -n '// must vectorize' "$file" | cut -d: -f1)
    if [ -z "$lines" ]; then
        say "$file: no loop is marked '// must vectorize'"
        bad=1
        continue
    fi
    for line in $lines; do
        if grep -q "^$file:$line:[0-9]*: optimized: loop vectorized" \
                <<< "$notes"; then
            say "ok   $file:$line"
        else
            say "FAIL $file:$line is not vectorized at -O2"
            bad=1
        fi
    done
done
exit $bad
