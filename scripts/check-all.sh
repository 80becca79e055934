#!/usr/bin/env bash
# One entry point for every source-level static gate: formatting and the
# pagen-lint architecture-contract checker (with its self-test, so a broken
# rule fails the same gate as a broken contract). Compile-time gates —
# clang-tidy, -Werror, sanitizers — live in the build presets and CI jobs;
# this script is the part that needs no compiler.
#
# Usage: scripts/check-all.sh [clang-format-binary]
set -u

cd "$(dirname "$0")/.."

status=0

echo "== check-format =="
if ! ./scripts/check-format.sh "${1:-clang-format}"; then
  status=1
fi

echo "== pagen-lint self-test =="
if ! python3 ./scripts/pagen-lint --self-test; then
  status=1
fi

echo "== pagen-lint src bench examples tools =="
if ! python3 ./scripts/pagen-lint src bench examples tools; then
  status=1
fi

if [ "$status" -ne 0 ]; then
  echo "check-all: FAILED"
else
  echo "check-all: all gates clean"
fi
exit "$status"
