#!/usr/bin/env bash
# Characteristic function of the mean: phi(0) = 1, |phi| <= 1 on a dense
# grid, and the fourth-order ODE residual <= 1e-8 with the analytic
# derivative across parameter sets.
set -euo pipefail
NORMPROD="${NORMPROD:-normprod}"

# unit variances throughout, as in the acceptance criterion
SETS=(
    "--mu-x 0.7 --mu-y -1.1 --rho 0.35 --n 2"
    "--mu-x -2.0 --mu-y 1.5 --rho -0.6"
    "--mu-x 1.7 --mu-y 2.9 --rho 0.85 --n 5"
    ""
)
for args in "${SETS[@]}"; do
    # shellcheck disable=SC2086
    "$NORMPROD" cf --t 0 $args --json | grep -q '"re": 1.0' \
        || { echo "FAIL: phi(0) != 1 for [$args]"; exit 1; }
    # shellcheck disable=SC2086
    "$NORMPROD" cf --grid -40:40:401 $args --json \
        | sed -n 's/.*"abs": \(.*\)/\1/p' | tr -d ',' \
        | awk '{ if ($1 > worst) worst = $1 }
               END { printf "max |phi| on grid: %.15f\n", worst;
                     exit !(worst <= 1 + 1e-12) }' \
        || { echo "FAIL: |phi| > 1 for [$args]"; exit 1; }
    # shellcheck disable=SC2086
    "$NORMPROD" cf --grid -5:5:41 --check-ode $args --json \
        | sed -n 's/.*"ode_residual": \(.*\)/\1/p' | tr -d ',' \
        | awk '{ r = $1; if (r < 0) r = -r; if (r > worst) worst = r }
               END { printf "max ODE residual: %.3e\n", worst;
                     exit !(worst <= 1e-8) }' \
        || { echo "FAIL: CF ODE residual over 1e-8 for [$args]"; exit 1; }
    echo "params [$args]: OK"
done
echo "OK: phi(0)=1, |phi|<=1, CF ODE residuals within 1e-8"
