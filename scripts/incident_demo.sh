#!/bin/sh
# incident_demo.sh — end-to-end incident flight-recorder demo. Runs
# resemblefront's incident demo (race-enabled) and fails unless the
# kill/failover phase emitted a fleet incident bundle with a failover
# trigger and a stitched cross-process Chrome trace, and the wedge
# phase emitted its manual-capture counterparts (DESIGN.md §15). The
# demo validates each stitched trace before it writes the file and
# exits non-zero when it cannot produce an artifact. Usage:
# scripts/incident_demo.sh [artifacts-dir] (a scratch dir is used and
# cleaned up when none is given), or `make incident-demo`.
set -eu

cd "$(dirname "$0")/.."

dir=${1:-}
if [ -z "$dir" ]; then
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
fi

go run -race ./cmd/resemblefront -soak -soak.artifacts "$dir"

for f in incident-kill.json stitched-kill.json incident-wedge.json stitched-wedge.json; do
    if ! test -s "$dir/$f"; then
        echo "incident-demo: missing artifact $f" >&2
        exit 1
    fi
done
if ! grep -q '"trigger": "failover"' "$dir/incident-kill.json"; then
    echo "incident-demo: kill-phase bundle carries no failover trigger" >&2
    exit 1
fi
echo "incident-demo: OK (artifacts in $dir)"
