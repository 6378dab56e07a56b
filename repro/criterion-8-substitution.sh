#!/usr/bin/env bash
# Substitution identities between Stein operators, as compositions of
# coefficient tables: on equal-ratio parameters A1 = A2 o L with
# L = (1-rho) s_n D + 1, and on zero-mean parameters A3 = A4 o L' with
# L' = (1-rho^2) s_n^2 D^2 + 2 rho s_n D - 1.  Applied to f at x, the
# composed table and the fourth-order one agree to <= 1e-9.
set -euo pipefail
NORMPROD="${NORMPROD:-normprod}"

check() { # args: identity, f, x, then parameter flags
    local ident="$1" f="$2" x="$3"; shift 3
    r=$("$NORMPROD" stein-apply --identity "$ident" --f "$f" --x "$x" \
            "$@" --json | sed -n 's/.*"residual": \(.*\)/\1/p' | tr -d ',')
    printf '%s f=%-12s x=%-5s %-30s residual=%s\n' "$ident" "$f" "$x" "$*" "$r"
    awk -v r="$r" 'BEGIN { if (r < 0) r = -r; exit !(r <= 1e-9) }' \
        || { echo "FAIL: residual above 1e-9"; exit 1; }
}

for f in poly:0 poly:2 poly:4 exp:0.3 gauss:0.5; do
    for x in -2.3 0.4 1.9; do
        check a1a2 "$f" "$x" --mu-x 0.55 --mu-y 0.9 \
            --sigma-x 1.1 --sigma-y 1.8 --rho 0.4 --n 2
        check a1a2 "$f" "$x" --mu-x -1.5 --mu-y -0.5 \
            --sigma-x 1.5 --sigma-y 0.5 --rho -0.6
        check a3a4 "$f" "$x" --rho 0.3 --n 2
        check a3a4 "$f" "$x" --sigma-x 1.3 --sigma-y 0.7 --rho -0.8 --n 5
    done
done
echo "OK: substitution identities hold to 1e-9"
