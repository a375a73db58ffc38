#!/bin/sh
# End-to-end checks of the `prophet` CLI's flag handling and exit
# codes: every value flag takes `--flag VALUE` and `--flag=VALUE`, a
# switch takes no value, a flag its command does not take exits 2
# naming the flag, so does a positional argument given to a command
# that takes none, `trace-cache warm` reads spec files only, and a
# spec that passes validation never aborts.
#
# Usage: tests/test_cli.sh PATH/TO/prophet   (ctest runs it as test_cli)

set -u
prophet=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failed=0

# expect CODE NEEDLE ARGS...: `prophet ARGS` exits CODE, and its
# stderr contains NEEDLE when NEEDLE is not empty.
expect() {
    code=$1
    needle=$2
    shift 2
    "$prophet" "$@" > "$work/stdout" 2> "$work/stderr"
    rc=$?
    if [ "$rc" -ne "$code" ]; then
        echo "FAIL: prophet $*: exit $rc, want $code"
        cat "$work/stderr"
        failed=1
    elif [ -n "$needle" ] && ! grep -qF -- "$needle" "$work/stderr"; then
        echo "FAIL: prophet $*: stderr lacks \"$needle\""
        cat "$work/stderr"
        failed=1
    else
        echo "ok: prophet $* (exit $rc)"
    fi
}

cache=$work/cache
spec=$work/spec.json

expect 0 "" trace-cache stats --trace-cache-dir="$cache"

# Flags a command does not take.
expect 2 "prophet trace-cache clear: --records has no effect here" \
    trace-cache clear --records 5 --trace-cache-dir "$cache"
expect 2 "prophet client run: --records has no effect here" \
    client run "$spec" --socket "$work/s.sock" --records 5
expect 2 "prophet list-workloads: --threads has no effect here" \
    list-workloads --threads 2
expect 2 "unknown flag --no-journal-fsync" \
    run "$spec" --no-journal-fsync
expect 2 "unknown flag --journal" run "$spec" --journal "$work/j"
# The socket's directory does not exist, so a daemon that took the
# flag would fail to bind and exit rather than serve forever.
expect 2 "unknown flag --request-deadline" \
    serve --socket "$work/none/s.sock" --request-deadline 5
expect 2 "unknown flag --deadline" \
    client run "$spec" --socket "$work/s.sock" --deadline 1

# Positional arguments a command does not take: a workload name must
# not turn `clear` into "clear everything".
expect 2 "unexpected argument \"mcf\"" \
    trace-cache clear mcf --trace-cache-dir "$cache"
expect 2 "unexpected argument \"bogus\"" list-workloads bogus

# Both spellings reach every value flag; a switch takes no value.
expect 2 "--max-queue: invalid value 'x'" serve --max-queue=x
expect 2 "--keep-going takes no value" run "$spec" --keep-going=1

# `trace-cache warm` takes spec files: a second warm of the same spec
# finds its trace cached, and a workload name is a spec that does not
# load (3).
warm=$work/warm.json
cat > "$warm" <<'JSON'
{"name": "cli-warm", "workloads": ["mcf"], "records": 2000,
 "pipelines": ["baseline"]}
JSON
expect 0 "" trace-cache warm "$warm" --trace-cache-dir "$cache"
expect 0 "" trace-cache warm "$warm" --trace-cache-dir "$cache"
if ! grep -qF "1 already cached" "$work/stdout"; then
    echo "FAIL: second trace-cache warm found nothing cached"
    cat "$work/stdout"
    failed=1
fi
expect 3 "cannot open mcf" \
    trace-cache warm mcf --records 2000 --trace-cache-dir "$cache"

# Priority bits the Analyzer cannot hold are a spec error (3), not
# an abort (134).
cat > "$spec" <<'JSON'
{"name": "cli-n-bits", "workloads": ["mcf"], "records": 2000,
 "trace_cache": false,
 "pipelines": [{"name": "prophet", "n_bits": 5}]}
JSON
expect 3 "n_bits" run "$spec"

exit $failed
