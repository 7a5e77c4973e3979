#!/bin/sh
# Help-text audit: <binary> --help must exit 0 and mention every flag
# the tool actually parses. The flag inventory is scraped from the
# sources ("--flag" string literals): the tool's own file plus any
# library file that parses flags on its behalf, so adding a flag
# without documenting it fails this test.
#
# usage: check_help.sh <binary> <source.cc> [more sources...]
set -eu

binary="$1"
shift

help_text="$("$binary" --help)" || {
    echo "FAIL: $binary --help exited non-zero" >&2
    exit 1
}

status=0
for flag in $(cat "$@" | grep -o '"--[a-z][a-z-]*"' | tr -d '"' |
              sort -u); do
    case "$help_text" in
      *"$flag"*) ;;
      *)
        echo "FAIL: $binary --help does not mention $flag" >&2
        status=1
        ;;
    esac
done

if [ "$status" -eq 0 ]; then
    echo "OK: $binary --help documents every parsed flag"
fi
exit "$status"
