#!/usr/bin/env bash
# Run every benchmark workload, each in its own process (README.md here).
#
#   bench/pagen_bench/run.sh [--seed=S] [--traced] [--out=DIR] [--work-dir=DIR]
#
# Writes DIR/<workload>.json and DIR/report.json (default .bench_reports/);
# exits nonzero on any build, run or verification failure.
exec python3 "$(dirname "$0")/run.py" "$@"
