#!/usr/bin/env bash
# Prints what every line of invocations.txt makes <sygraph-cli> write:
#   record.sh target/release/sygraph-cli | diff - expected.txt
# Run it under `taskset -c 0`; on more cores the modelled milliseconds
# wobble in the last digits with the host schedule.
set -u
bin=$1
dir=$(cd "$(dirname "$0")" && pwd)
err=$(mktemp)
trap 'rm -f "$err"' EXIT
grep -v '^#' "$dir/invocations.txt" | while IFS= read -r args; do
  echo "\$ $args"
  # shellcheck disable=SC2086
  SYG_SCALE=test "$bin" $args 2>"$err"
  code=$?
  echo "--- stderr"
  cat "$err"
  echo "--- exit $code"
done
