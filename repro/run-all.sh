#!/usr/bin/env bash
# Run every reproduction script in order.
set -euo pipefail
cd "$(dirname "$0")"
# without an installed normprod, run the CLI from this checkout's src/
if [ -z "${NORMPROD:-}" ] && ! command -v normprod >/dev/null; then
    export NORMPROD="$PWD/normprod"
fi
for script in criterion-*.sh; do
    echo "=================================================================="
    echo "== $script"
    echo "=================================================================="
    bash "$script"
done
echo "All reproduction scripts passed."
