#!/bin/sh
# cash/cashc parity check (docs/SERVICE.md).
#
# Usage: cli_parity.sh CASHC CASHD CASH PROGRAM...
#
# Boots two private cashd daemons and, for every PROGRAM and every
# request in the matrix below, checks that `cashc ARGS PROGRAM` and
# `cash compile PROGRAM ARGS` print byte-identical stdout, exit with
# the same code, and print the same stderr once cashc's "cashc: "
# prefix reads "cash: ".  The second daemon (and its cashc twin) runs
# with a token corruption injected after dead_code through
# $CASH_INJECT, which is how the pass-failure and strict-analysis
# lines are reached with request flags alone.  Exits 0 when every
# pair matches, 1 otherwise.
set -u

if [ $# -lt 4 ]; then
    echo "usage: $0 CASHC CASHD CASH PROGRAM..." >&2
    exit 2
fi
CASHC=$1
CASHD=$2
CASH=$3
shift 3

work=$(mktemp -d "${TMPDIR:-/tmp}/cash_parity.XXXXXX") || exit 1
pids=""
cleanup() {
    for p in $pids; do
        kill -TERM "$p" 2>/dev/null
        wait "$p" 2>/dev/null
    done
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

INJECT='graph.corrupt-token:pass=dead_code,round=1'

# start_daemon NAME [ENV=VALUE]: boot a cashd on $work/NAME.sock.
start_daemon() {
    sock="$work/$1.sock"
    if [ $# -gt 1 ]; then
        env "$2" "$CASHD" --socket "$sock" -j 2 &
    else
        "$CASHD" --socket "$sock" -j 2 &
    fi
    pids="$pids $!"
    i=0
    while [ ! -S "$sock" ] && [ $i -lt 100 ]; do
        sleep 0.05
        i=$((i + 1))
    done
    [ -S "$sock" ] || { echo "cashd $1 did not start" >&2; exit 1; }
}

start_daemon clean
start_daemon inject "CASH_INJECT=$INJECT"

failures=0
checks=0

# check DAEMON PROGRAM ARGS...: one cashc/cash pair.
check() {
    daemon=$1
    prog=$2
    shift 2
    if [ "$daemon" = inject ]; then
        CASH_INJECT=$INJECT "$CASHC" "$@" "$prog" \
            > "$work/c.out" 2> "$work/c.err"
    else
        "$CASHC" "$@" "$prog" > "$work/c.out" 2> "$work/c.err"
    fi
    c_exit=$?
    "$CASH" --socket "$work/$daemon.sock" compile "$prog" "$@" \
        > "$work/s.out" 2> "$work/s.err"
    s_exit=$?
    sed 's/^cashc: /cash: /' "$work/c.err" > "$work/c.err.norm"
    checks=$((checks + 1))
    what="$(basename "$prog") [$daemon] $*"
    if [ "$c_exit" -ne "$s_exit" ]; then
        echo "FAIL $what: exit cashc=$c_exit cash=$s_exit"
        failures=$((failures + 1))
    elif ! cmp -s "$work/c.out" "$work/s.out"; then
        echo "FAIL $what: stdout differs"
        diff "$work/c.out" "$work/s.out" | head -20
        failures=$((failures + 1))
    elif ! cmp -s "$work/c.err.norm" "$work/s.err"; then
        echo "FAIL $what: stderr differs"
        diff "$work/c.err.norm" "$work/s.err" | head -20
        failures=$((failures + 1))
    else
        echo "ok   $what (exit $c_exit)"
    fi
}

for prog in "$@"; do
    check clean "$prog" --run 'run(64)'
    check clean "$prog" --run 'nosuch(1)'
    check clean "$prog" --max-events 100 --run 'run(64)'
    check clean "$prog" --analyze --run 'run(64)'
    check clean "$prog" --analyze=ordering_soundness,unprovable_pragma \
        --analyze-strict --verify-each-pass --strict --run 'run(64)'
    check clean "$prog" --target opt=medium,mem=perfect,engine=event \
        --max-events 1000000 --run 'run(64)'
    check clean "$prog" --target opt=full,ipo=off,fabric=2x2 \
        --run 'run(64)'
    check clean "$prog" --dump-cfg --dot --target opt=none
    check clean "$prog" --dump-graph --passes=dead_code,scalar_opts \
        --no-verify
    check inject "$prog" --target opt=full --run 'run(64)'
    check inject "$prog" --passes=dead_code --no-verify --analyze \
        --analyze-strict --run 'run(64)'
done

echo "$checks checks, $failures failures"
[ "$failures" -eq 0 ]
