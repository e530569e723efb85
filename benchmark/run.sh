#!/usr/bin/env bash
# The repo benchmark's one command: builds the measuring program from
# ../src and runs it (all five workloads, or one with --workload).
# Options are those of benchmark/run.py; see benchmark/README.md.
exec python3 "$(dirname "$0")/run.py" "$@"
