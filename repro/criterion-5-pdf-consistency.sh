#!/usr/bin/env bash
# PDF consistency: the double series agrees with the single-series form on
# the one-zero-mean uncorrelated case and with the zero-mean closed form,
# and the density integrates to 1 across a 10-point parameter sweep
# covering rho in {-0.9, 0, 0.9}, means in {0, +-1, +-3}, sigma in
# {0.5, 1, 2}.
set -euo pipefail
NORMPROD="${NORMPROD:-normprod}"

compare() { # args: label, then pdf flags for two methods
    local label="$1" m1="$2" m2="$3"; shift 3
    local a b
    for half in "-4:-0.2:20" "0.2:4:21"; do
        a=$("$NORMPROD" pdf "$@" --grid "$half" --method "$m1" --csv)
        b=$("$NORMPROD" pdf "$@" --grid "$half" --method "$m2" --csv)
        paste -d, <(echo "$a") <(echo "$b") | tail -n +2 \
            | awk -F, -v label="$label" '
                { d = ($3 - $8) / $8; if (d < 0) d = -d;
                  if (d > worst) worst = d }
                END { printf "%s: max rel diff %.3e\n", label, worst;
                      exit !(worst < 1e-10) }' \
            || { echo "FAIL: $label disagrees beyond 1e-10"; exit 1; }
    done
}

compare "double vs single series" double single \
    --mu-x 1.2 --sigma-x 0.9 --sigma-y 1.1
compare "double series vs closed form" double closed \
    --sigma-x 1.1 --sigma-y 0.8 --rho 0.3

# --method series: the default conditional CDF is 1 at x = 1000 by
# construction, whatever the series density integrates to
echo "-- unit mass over the parameter sweep (series cdf at a far-right point):"
sweep=(
    ""
    "--sigma-x 0.5 --sigma-y 2 --rho 0.9"
    "--sigma-x 2 --sigma-y 0.5 --rho -0.9"
    "--mu-x 1"
    "--mu-x -1 --sigma-x 0.5"
    "--mu-x 3 --sigma-y 2"
    "--mu-x -3 --sigma-x 2"
    "--mu-x 1 --mu-y 1"
    "--mu-x 1 --mu-y 1 --rho 0.9"
    "--mu-x -1 --mu-y -1 --rho 0.9"
)
for args in "${sweep[@]}"; do
    # shellcheck disable=SC2086
    mass=$("$NORMPROD" cdf --method series --x 1000 $args --json \
        | sed -n 's/.*"cdf": \(.*\)/\1/p' | tr -d ',')
    printf 'params [%s]: total mass %s\n' "$args" "$mass"
    awk -v m="$mass" 'BEGIN { d = m - 1; if (d < 0) d = -d; exit !(d < 1e-6) }' \
        || { echo "FAIL: mass deviates from 1 by more than 1e-6"; exit 1; }
done
echo "OK: series forms agree and the density integrates to 1"
