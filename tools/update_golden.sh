#!/bin/sh
# Regenerate the golden expected files under tests/golden/ from the
# current source: builds test_golden, then runs it with --update, which
# rewrites every expected file instead of comparing against it.
#
#   tools/update_golden.sh [BUILD_DIR] [gtest args...]
#
# BUILD_DIR defaults to build/. Extra arguments go to the test binary,
# e.g. --gtest_filter=Fast/* to skip the full-size (slow) specs.
# Review the result with `git diff tests/golden` before committing.
set -eu

cd "$(dirname "$0")/.."
build=${1:-build}
[ $# -gt 0 ] && shift

[ -f "$build/CMakeCache.txt" ] || cmake -B "$build" -S .
cmake --build "$build" --target test_golden -j 4
"$build/test_golden" --update "$@"
git status --short tests/golden
