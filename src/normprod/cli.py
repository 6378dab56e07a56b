"""Command-line entry point.

One binary with subcommands; every numeric result is emitted inside an
envelope echoing the parameters that produced it, so runs are
reproducible from the output alone.  Exit codes: 0 success, 2 parameter
validation error, 3 non-convergence, a NaN result or a sample that is not
finite, 64 unknown subcommand.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
import time
from fractions import Fraction

import click
import numpy as np

from . import bessel, charfn, density, mc, moments, opsearch, stein
from .errors import (CaseMismatch, InvalidGrid, InvalidTestFunction,
                     NormProdError, NotConverged, SingularPoint)
from .params import MeanParams, validate

SCHEMA_VERSION = "1.0"


class _Group(click.Group):
    def resolve_command(self, ctx, args):
        try:
            return super().resolve_command(ctx, args)
        except click.UsageError:
            click.echo(self.get_help(ctx), err=True)
            sys.exit(64)


@click.group(cls=_Group)
def cli():
    """Distribution of the product of correlated normal random variables."""


_PARAMS = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0,
           "rho": 0.0, "n": 1}  # the parameter flags and their defaults


def _command(name: str, *, params: bool = True, json_flag: bool = True):
    """Register ``body(mp, **options)`` as the subcommand ``name``.

    Adds the parameter flags and --params-json (unless ``params`` is
    false, when ``mp`` is None) and --json (unless ``json_flag`` is
    false); validates the parameters, times the body and emits the
    envelope of the dict it returns, or nothing when it returns None
    after writing its own CSV.  NotConverged exits 3 and any other
    NormProdError 2, each with an ``error:`` line on stderr.
    """

    def register(body):
        @functools.wraps(body)
        def run(as_json=False, params_json=None, **options):
            started = time.perf_counter()
            try:
                mp = _mean_params(options, params_json) if params else None
                results = body(mp, **options)
                if results is not None:
                    _emit(name, mp, results, started, as_json,
                          options.get("out"))
            except NormProdError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(3 if isinstance(exc, NotConverged) else 2)

        command = cli.command(name)(run)
        if params:
            command.params[:0] = [
                *(click.Option([f"--{key.replace('_', '-')}"],
                               type=type(default), default=default,
                               show_default=True)
                  for key, default in _PARAMS.items()),
                click.Option(["--params-json"],
                             type=click.Path(exists=True, dir_okay=False),
                             default=None,
                             help="JSON object with mu_x, mu_y, sigma_x, "
                                  "sigma_y, rho, n; overrides the flags")]
        if json_flag:
            command.params.append(
                click.Option(["--json", "as_json"], is_flag=True))
        return command

    return register


def _mean_params(options: dict, params_json) -> MeanParams:
    """The parameter flags popped off options, overridden by params_json."""
    values = {key: options.pop(key) for key in _PARAMS}
    if params_json:
        with open(params_json) as fh:
            obj = json.load(fh)
        values = {key: obj.get(key, value) for key, value in values.items()}
    *base, n = values.values()
    return MeanParams(validate(*base), n)


def _jsonify(obj):
    """obj in strict JSON types, with +-inf as the strings "inf" and
    "-inf"; NotConverged if it holds a NaN, so that no command exits 0
    with one.  A float array is checked in one pass."""
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj):
            raise NotConverged("the result holds a NaN")
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        if np.isfinite(obj).all():
            return obj.tolist()
        return _jsonify(obj.tolist())
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, complex):
        return _jsonify({"re": obj.real, "im": obj.imag})
    if isinstance(obj, np.integer):
        return obj.item()
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def _emit(command: str, mp, results: dict, started: float,
          as_json: bool, out):
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params_echo": {} if mp is None else {
            **dataclasses.asdict(mp.base), "n": mp.n},
        "results": _jsonify(results),
        "timing_ms": round(1000 * (time.perf_counter() - started), 3),
    }
    with _output(out) as target:
        if as_json:
            # one write: with unbuffered stdout (PYTHONUNBUFFERED) a reader
            # that stops at its first match, such as grep -q, would
            # otherwise close the pipe under a later write
            target.write(json.dumps(envelope, indent=2, allow_nan=False)
                         + "\n")
        else:
            _print_table(envelope, target)


def _output(path):
    """The file at ``path``, opened for writing, or stdout without one."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _print_table(envelope: dict, target):
    print(f"# {envelope['command']}", file=target)
    for key, value in envelope["params_echo"].items():
        print(f"#   {key} = {value}", file=target)
    _print_items(envelope["results"], target, indent="")
    print(f"# elapsed {envelope['timing_ms']} ms", file=target)


def _print_items(results, target, indent):
    for key, value in results.items():
        if isinstance(value, dict) and "num" in value and "den" in value:
            text = value["num"] if value["den"] == "1" else \
                f"{value['num']}/{value['den']}"
            print(f"{indent}{key:<16} {text}", file=target)
        elif isinstance(value, dict):
            print(f"{indent}{key}:", file=target)
            _print_items(value, target, indent + "  ")
        elif isinstance(value, float):
            print(f"{indent}{key:<16} {value:.17g}", file=target)
        else:
            print(f"{indent}{key:<16} {value}", file=target)


def _write_csv(path_or_stdout, header, rows):
    rows = _jsonify(rows)  # refuses a NaN before anything is written
    with _output(path_or_stdout) as target:
        print(",".join(header), file=target)
        for row in rows:
            print(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                           for v in row), file=target)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        count = 0
    if count < 1:
        raise InvalidGrid(f"grid {spec!r}; expected lo:hi:count with numbers "
                          "lo and hi and an integer count >= 1")
    return np.linspace(lo, hi, count)


def _parse_test_function(spec: str) -> stein.TestFunction:
    kind, _, arg = spec.partition(":")
    builders = {"poly": stein.monomial, "exp": stein.exponential,
                "sin": stein.sine, "cos": stein.cosine,
                "gauss": stein.gaussian_bump}
    if kind not in builders:
        raise click.BadParameter(
            f"unknown test function {spec!r}; use poly:K, exp:A, sin:T, "
            "cos:T or gauss:A")
    try:
        value = int(arg) if kind == "poly" else float(arg)
    except ValueError:
        raise InvalidTestFunction(f"{spec!r}: {arg!r} is not a number") \
            from None
    return builders[kind](value)


_OPERATOR_BUILDERS = {"a1": stein.operator_a1, "a2": stein.operator_a2, **{
    which: functools.partial(stein.operator_special, which)
    for which in ("a3", "a4", "a5", "a6", "a7")}}


@_command("besselk", params=False)
@click.option("--nu", type=str, required=True, help="order (integer or half-integer)")
@click.option("--x", type=float, required=True)
@click.option("--scaled", is_flag=True)
def besselk(mp, nu, x, scaled):
    """Modified Bessel function of the second kind (debug/oracle access)."""
    order = bessel.BesselOrder.from_nu(nu)
    return {"nu": float(order.nu), "x": x, "scaled": scaled,
            "value": bessel.bessel_k(order, x, scaled=scaled),
            "log_value": bessel.log_bessel_k(order, x)}


@_command("pdf")
@click.option("--x", type=float, default=None)
@click.option("--grid", type=str, default=None, help="lo:hi:count")
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--method", type=click.Choice(["auto", "double", "single",
                                             "closed"]),
              default="auto", show_default=True,
              help="auto: integral (n=1) or closed form (n>1)")
def pdf(mp, x, grid, as_csv, out, method):
    """Density of the product (n=1) or of the zero-mean average (n>1)."""
    xs = _parse_grid(grid) if grid else [x]
    if x is None and grid is None:
        raise click.UsageError("provide --x or --grid")

    def one(xv):
        if method == "double":
            return density.pdf_product_series(mp.base, xv)
        if method == "single":
            return density.pdf_single_zero_mean(mp.base, xv)
        if method == "auto" and mp.n == 1:
            return density.pdf_product(mp.base, xv)
        return density.pdf_mean_zero_means(mp, xv)

    rows = []
    for xv in map(float, xs):
        try:
            dv = one(xv)
            row = (dv.log_abs, dv.value, dv.terms_used)
        except SingularPoint:  # the density diverges here; the row says so
            row = (math.inf, math.inf, 0)
        rows.append((xv, *row, density.DensityValue.converged))
    if not as_csv:
        return {"points": [
            {"x": r[0], "log_pdf": r[1], "pdf": r[2],
             "terms_used": r[3], "converged": r[4]} for r in rows]}
    _write_csv(out, ["x", "log_pdf", "pdf", "terms_used", "converged"], rows)


@_command("cdf")
@click.option("--x", type=float, required=True)
@click.option("--method", type=click.Choice(["conditional", "series"]),
              default="conditional", show_default=True,
              help="conditional: integral over X of P(Y <= x/X | X); "
                   "series: quadrature of the series density")
def cdf(mp, x, method):
    """CDF of the product (n=1 only).

    By default, a 1-D integral of the conditional normal CDF of Y given X;
    ``--method series`` integrates the Bessel-series density instead,
    which checks that the series has unit mass.
    """
    if mp.n != 1:
        raise CaseMismatch(
            f"the CDF is implemented for n = 1, not n = {mp.n}")
    cdf_fn = (density.cdf_product_series if method == "series"
              else density.cdf_product)
    return {"x": x, "cdf": cdf_fn(mp.base, x)}


@_command("moments")
@click.option("--kmax", type=click.IntRange(min=0), default=8,
              show_default=True)
@click.option("--central", is_flag=True)
@click.option("--closed-form", is_flag=True)
@click.option("--exact", is_flag=True, help="report exact rationals")
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def moments_cmd(mp, kmax, central, closed_form, exact, as_csv, out):
    """Raw or central moments by the Stein recursion."""
    results = {}
    if exact:
        vals = (moments.central_moments_exact(mp, kmax) if central
                else moments.raw_moments_exact(mp, kmax))
        results["kind"] = "central" if central else "raw"
        results["values"] = list(vals)
    else:
        table = (moments.central_moments(mp, kmax) if central
                 else moments.raw_moments(mp, kmax))
        results["kind"] = table.kind
        results["values"] = list(table.values)
        results["provenance"] = table.provenance
    if closed_form:
        cf4 = moments.closed_form_four(mp)
        results["closed_form"] = {
            "raw": list(cf4.raw), "central": list(cf4.central),
            "variance": cf4.variance, "skewness": cf4.skewness,
            "kurtosis": cf4.kurtosis,
        }
    if not as_csv:
        return results
    _write_csv(out, ["k", results["kind"]],
               [(k, float(v)) for k, v in enumerate(results["values"])])


@_command("operator")
@click.option("--which", type=click.Choice(sorted(_OPERATOR_BUILDERS)),
              required=True)
def operator(mp, which):
    """Print a Stein operator's coefficient table."""
    spec = _OPERATOR_BUILDERS[which](mp)
    return {"which": which, "order": spec.order,
            "coeffs": [{"j": j, "a0": c[0], "a1": c[1]}
                       for j, c in enumerate(spec.coeffs)]}


@_command("stein-apply")
@click.option("--which", type=click.Choice(sorted(_OPERATOR_BUILDERS)),
              default=None)
@click.option("--f", "fspec", type=str, required=True, help="e.g. poly:3")
@click.option("--x", type=float, required=True)
@click.option("--identity", type=click.Choice(["a1a2", "a3a4"]), default=None,
              help="report the substitution-identity residual instead")
def stein_apply(mp, which, fspec, x, identity):
    """Apply a Stein operator to a built-in test function at a point."""
    f = _parse_test_function(fspec)
    if identity is not None:
        residual = stein.substitution_identity_check(mp, f, x, identity)
        return {"identity": identity, "f": f.label, "x": x,
                "residual": residual}
    if which is None:
        raise click.UsageError("provide --which or --identity")
    spec = _OPERATOR_BUILDERS[which](mp)
    value = float(stein.apply(spec, f, x))
    return {"which": which, "f": f.label, "x": x, "value": value}


@_command("stein-check")
@click.option("--which", type=click.Choice(sorted(_OPERATOR_BUILDERS)),
              default="a1", show_default=True)
@click.option("--f", "fspec", type=str, default="poly:2", show_default=True)
@click.option("--count", type=int, default=10 ** 6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def stein_check(mp, which, fspec, count, seed):
    """Monte Carlo check that the operator's expectation vanishes."""
    spec = _OPERATOR_BUILDERS[which](mp)
    f = _parse_test_function(fspec)
    est = mc.estimate_stein_expectation(mp, spec, f,
                                        mc.SamplerConfig(seed, count))
    return {"which": which, "f": f.label, "count": est.count,
            "estimate": est.mean, "stderr": est.stderr,
            "z_score": est.z_score()}


@_command("cf")
@click.option("--t", type=float, default=None)
@click.option("--grid", type=str, default=None, help="lo:hi:count")
@click.option("--check-ode", is_flag=True)
def cf(mp, t, grid, check_ode):
    """Characteristic function of the mean, optionally with ODE residuals."""
    if t is None and grid is None:
        raise click.UsageError("provide --t or --grid")
    ts = _parse_grid(grid) if grid else np.array([t])
    points = []
    for tv, value in zip(ts, map(complex, charfn.cf_mean(mp, ts))):
        entry = {"t": float(tv), "re": value.real, "im": value.imag,
                 "abs": abs(value)}
        if check_ode:
            entry["ode_residual"] = charfn.cf_ode_residual(mp, float(tv))
        points.append(entry)
    return {"points": points}


@_command("ode-check")
@click.option("--x", "xs", type=float, multiple=True, required=True)
def ode_check(mp, xs):
    """Residual of the density ODE at the given points."""
    if mp.base.mu_x == 0 and mp.base.mu_y == 0:
        method, derivs = "closed_form", functools.partial(
            density.mean_zero_means_derivatives, mp)
    elif mp.n == 1:
        method, derivs = "integral", functools.partial(
            density.pdf_product_derivatives, mp.base)
    else:
        raise CaseMismatch("no density of the mean for n > 1 with "
                           "non-zero means")
    points = []
    for xv in xs:
        res = density.ode_residual_density(mp, xv, derivs(xv))
        points.append({"x": xv, "residual": res, "derivatives": method})
    return {"points": points}


@_command("opsearch")
@click.option("--order", type=int, default=3, show_default=True)
@click.option("--rows", type=int, default=None,
              help="number of monomial equations (default 2(order+1)+4)")
@click.option("--det", "want_det", is_flag=True,
              help="also report the determinant of the square system")
@click.option("--print-system", is_flag=True)
def opsearch_cmd(mp, order, rows, want_det, print_system):
    """Exact-arithmetic search for a linear-coefficient operator."""
    ansatz = opsearch.OperatorAnsatz(order)
    n_rows = rows if rows is not None else ansatz.num_unknowns + \
        opsearch.EXTRA_ROWS
    result = opsearch.operator_exists(mp, order, n_rows)
    results = {"order": order, "rows": n_rows, "exists": result.exists,
               "nullspace_dim": len(result.nullspace_basis),
               "nullspace_basis": [list(v) for v in result.nullspace_basis]}
    if want_det:
        square = opsearch.moment_system(mp, ansatz, ansatz.num_unknowns)
        results["determinant"] = opsearch.determinant_exact(square)
    if print_system:
        system = opsearch.moment_system(mp, ansatz, n_rows)
        results["system"] = [[v for v in row] for row in system]
    return results


@_command("sample", json_flag=False)
@click.option("--count", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def sample(mp, count, seed, out):
    """Emit reproducible samples of the mean of n products as CSV."""
    cfg = mc.SamplerConfig(seed, count)

    def chunks():  # one format call per batch, in _write_csv's row format
        for i, batch in enumerate(mc.sample_mean_of_products(mp, cfg)):
            if not np.isfinite(batch).all():
                raise NotConverged("a sample is NaN or overflows")
            yield "%d,%.17g\n" * batch.size % tuple(np.c_[
                np.arange(batch.size) + i * mc.BATCH, batch].ravel().tolist())
    rows = chunks()
    with np.errstate(over="ignore", invalid="ignore"), _output(out) as target:
        # the header goes with the first batch, which a refusal leaves unsent
        target.write("index,value\n" + next(rows))
        target.writelines(rows)


def main():
    cli()


if __name__ == "__main__":
    main()
