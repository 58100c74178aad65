#!/usr/bin/env bash
# No-FMA gate for the dispatched tensor kernels: src/tensor/ops.cpp.o must
# hold no vfmadd instruction in the main build nor in the perfbench build.
# The perfbench package compiles src/ without the top-level
# -ffp-contract=off, and the AVX-512F path carries FMA instructions, so
# only the no-contraction rule written in the kernel source keeps a fused
# multiply-add out there (see src/tensor/ops.h). A fused kernel rounds its
# vector loop and its scalar tail differently, so results would depend on
# heap alignment.
# Builds perfbench first (python3 perfbench/run.py --selftest).
# Usage: check_no_fma.sh [BUILD_DIR]   (default: build)
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
BUILD="$(cd "${1:-build}" && pwd)"
cd "$ROOT"

python3 perfbench/run.py --selftest
bench_dir="${CARGO_TARGET_DIR:-.bench_build}/perfbench"

objects=("$BUILD/CMakeFiles/fedtrip.dir/src/tensor/ops.cpp.o")
while IFS= read -r obj; do objects+=("$obj"); done \
  < <(find "$bench_dir" -path '*fedtrip_lib.dir*' -name ops.cpp.o)
if [ "${#objects[@]}" -lt 2 ]; then
  echo "no ops.cpp.o found in the perfbench build under $bench_dir"
  exit 1
fi

status=0
for obj in "${objects[@]}"; do
  [ -f "$obj" ] || { echo "missing object: $obj"; status=1; continue; }
  count="$(objdump -d "$obj" | grep -c vfmadd || true)"
  echo "$obj: $count vfmadd"
  [ "$count" -eq 0 ] || status=1
done
exit "$status"
