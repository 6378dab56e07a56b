#!/usr/bin/env bash
# Fourth-order density ODE: normalized residuals <= 1e-8 for the zero-mean
# closed form (analytic derivatives) and for the general density
# (derivatives under the integral).
set -euo pipefail
NORMPROD="${NORMPROD:-normprod}"

check() { # args: tolerance, then ode-check flags
    local tol="$1"; shift
    out=$("$NORMPROD" ode-check "$@" --json)
    echo "$out" | sed -n 's/.*"residual": \(.*\)/\1/p' | tr -d ',' \
        | awk -v tol="$tol" '
            { r = $1; if (r < 0) r = -r; if (r > worst) worst = r }
            END { printf "  max |residual| %.3e (tol %s)\n", worst, tol;
                  exit !(worst <= tol) }' \
        || { echo "FAIL: residual over tolerance for: $*"; exit 1; }
}

for n in 2 3 5; do
    for rho in 0 0.4 -0.4; do
        echo "zero means, n=$n, rho=$rho:"
        check 1e-8 --n "$n" --rho "$rho" --x -1.5 --x 0.7 --x 2.0
    done
done

echo "general params (derivatives under the integral):"
check 1e-8 --mu-x 1 --mu-y 0.5 --rho 0.2 \
    --x -1.5 --x -0.6 --x 0.7 --x 1.0 --x 2.2
echo "OK: density ODE residuals within tolerance"
