#!/bin/sh
# Runs the CLI on parameters outside each subcommand's preconditions and
# checks that every one is a usage error: exit status 124 and no
# "internal error" in the output.
#
# Usage: sh cli_usage.sh PATH/TO/consensus_cli.exe

cli=$1
status=0

expect_usage_error() {
  out=$("$cli" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 124 ] || printf '%s\n' "$out" | grep -q "internal error"
  then
    printf 'cli-usage: "%s" exited %d, expected a usage error (124):\n%s\n' \
      "$*" "$code" "$out"
    status=1
  fi
}

expect_usage_error run -n 0
expect_usage_error run -n 4 -t 5
expect_usage_error run -n 4 -t 4
expect_usage_error trace -n 4 -t 9
expect_usage_error valency -n 4 -t 9
expect_usage_error async -n 4 -t 4
expect_usage_error async -n 4 -t 2
expect_usage_error async -n 0
expect_usage_error byzantine -n 4 -t 2
expect_usage_error byzantine -n 4 -t 1 --protocol chor-coan
expect_usage_error coinflip -n 1
expect_usage_error bounds -n 0
expect_usage_error bounds -n 1

exit $status
