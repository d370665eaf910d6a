#!/usr/bin/env bash
# The benchmark's single command: builds snorkel_bench in Release, runs the
# workloads and checks their outputs. See benchmark/run.py for the options.
exec python3 "$(dirname "$0")/run.py" "$@"
