"""Command-line entry point.

One binary with subcommands; every numeric result is emitted inside an
envelope echoing the parameters that produced it, so runs are
reproducible from the output alone.  Exit codes: 0 success, 2 parameter
validation error, 3 non-convergence, 64 unknown subcommand.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from fractions import Fraction

import click
import numpy as np

from . import bessel, charfn, density, mc, moments, opsearch, stein
from .errors import CaseMismatch, NormProdError, NotConverged
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


def _param_options(fn):
    for opt, kwargs in reversed([
        ("--mu-x", dict(type=float, default=0.0, show_default=True)),
        ("--mu-y", dict(type=float, default=0.0, show_default=True)),
        ("--sigma-x", dict(type=float, default=1.0, show_default=True)),
        ("--sigma-y", dict(type=float, default=1.0, show_default=True)),
        ("--rho", dict(type=float, default=0.0, show_default=True)),
        ("--n", dict(type=int, default=1, show_default=True)),
        ("--params-json", dict(type=click.Path(exists=True, dir_okay=False),
                               default=None,
                               help="JSON object with mu_x, mu_y, sigma_x, "
                                    "sigma_y, rho, n; overrides the flags")),
    ]):
        fn = click.option(opt, **kwargs)(fn)
    return fn


def _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json) -> MeanParams:
    if params_json:
        with open(params_json) as fh:
            obj = json.load(fh)
        mu_x = obj.get("mu_x", mu_x)
        mu_y = obj.get("mu_y", mu_y)
        sigma_x = obj.get("sigma_x", sigma_x)
        sigma_y = obj.get("sigma_y", sigma_y)
        rho = obj.get("rho", rho)
        n = obj.get("n", n)
    return MeanParams(validate(mu_x, mu_y, sigma_x, sigma_y, rho), n)


def _echo_params(mp: MeanParams) -> dict:
    p = mp.base
    return {"mu_x": p.mu_x, "mu_y": p.mu_y, "sigma_x": p.sigma_x,
            "sigma_y": p.sigma_y, "rho": p.rho, "n": mp.n}


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def _emit(command: str, mp, results: dict, started: float,
          as_json: bool, out=None):
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params_echo": _echo_params(mp) if mp is not None else {},
        "results": _jsonify(results),
        "timing_ms": round(1000 * (time.perf_counter() - started), 3),
    }
    with _output(out) as target:
        if as_json:
            # one write: with unbuffered stdout (PYTHONUNBUFFERED) a reader
            # that stops at its first match, such as grep -q, would
            # otherwise close the pipe under a later write
            target.write(json.dumps(envelope, indent=2) + "\n")
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
        elif isinstance(value, list):
            print(f"{indent}{key:<16} {value}", file=target)
        elif isinstance(value, float):
            print(f"{indent}{key:<16} {value:.17g}", file=target)
        else:
            print(f"{indent}{key:<16} {value}", file=target)


def _write_csv(path_or_stdout, header, rows):
    with _output(path_or_stdout) as target:
        print(",".join(header), file=target)
        for row in rows:
            print(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                           for v in row), file=target)


def _run(fn):
    try:
        fn()
    except NotConverged as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except NormProdError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _parse_grid(spec: str) -> np.ndarray:
    lo, hi, count = spec.split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _parse_test_function(spec: str) -> stein.TestFunction:
    kind, _, arg = spec.partition(":")
    builders = {
        "poly": lambda a: stein.monomial(int(a)),
        "exp": lambda a: stein.exponential(float(a)),
        "sin": lambda a: stein.sine(float(a)),
        "cos": lambda a: stein.cosine(float(a)),
        "gauss": lambda a: stein.gaussian_bump(float(a)),
    }
    if kind not in builders:
        raise click.BadParameter(
            f"unknown test function {spec!r}; use poly:K, exp:A, sin:T, "
            "cos:T or gauss:A")
    return builders[kind](arg)


_OPERATOR_BUILDERS = {
    "a1": stein.operator_a1,
    "a2": stein.operator_a2,
    "a3": lambda mp: stein.operator_special("a3", mp),
    "a4": lambda mp: stein.operator_special("a4", mp),
    "a5": lambda mp: stein.operator_special("a5", mp),
    "a6": lambda mp: stein.operator_special("a6", mp),
    "a7": lambda mp: stein.operator_special("a7", mp),
}


@cli.command()
@click.option("--nu", type=str, required=True, help="order (integer or half-integer)")
@click.option("--x", type=float, required=True)
@click.option("--scaled", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def besselk(nu, x, scaled, as_json):
    """Modified Bessel function of the second kind (debug/oracle access)."""
    started = time.perf_counter()

    def body():
        order = bessel.BesselOrder.from_nu(Fraction(nu))
        value = bessel.bessel_k(order, x, scaled=scaled)
        results = {"nu": float(order.nu), "x": x, "scaled": scaled,
                   "value": value, "log_value": bessel.log_bessel_k(order, x)}
        _emit("besselk", None, results, started, as_json)

    _run(body)


@cli.command()
@_param_options
@click.option("--x", type=float, default=None)
@click.option("--grid", type=str, default=None, help="lo:hi:count")
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--rel-tol", type=float, default=1e-14, show_default=True,
              help="series methods only")
@click.option("--max-outer", type=int, default=300, show_default=True,
              help="series methods only")
@click.option("--method", type=click.Choice(["auto", "double", "single",
                                             "closed"]),
              default="auto", show_default=True,
              help="auto: integral (n=1) or closed form (n>1)")
def pdf(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, x, grid,
        as_json, as_csv, out, rel_tol, max_outer, method):
    """Density of the product (n=1) or of the zero-mean average (n>1)."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
        ctl = density.SeriesControl(rel_tol, max_outer)
        xs = _parse_grid(grid) if grid else [x]
        if x is None and grid is None:
            raise click.UsageError("provide --x or --grid")

        def one(xv):
            if method == "double":
                return density.pdf_product_series(mp.base, xv, ctl)
            if method == "single":
                return density.pdf_single_zero_mean(mp.base, xv, ctl)
            if method == "auto" and mp.n == 1:
                return density.pdf_product(mp.base, xv)
            return density.pdf_mean_zero_means(mp, xv)

        rows = []
        for xv in xs:
            dv = one(float(xv))
            rows.append((float(xv), dv.log_abs, dv.value, dv.terms_used,
                         dv.converged))
        if as_csv:
            _write_csv(out, ["x", "log_pdf", "pdf", "terms_used", "converged"],
                       rows)
        else:
            results = {"points": [
                {"x": r[0], "log_pdf": r[1], "pdf": r[2],
                 "terms_used": r[3], "converged": r[4]} for r in rows]}
            _emit("pdf", mp, results, started, as_json, out)

    _run(body)


@cli.command()
@_param_options
@click.option("--x", type=float, required=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--method", type=click.Choice(["conditional", "series"]),
              default="conditional", show_default=True,
              help="conditional: integral over X of P(Y <= x/X | X); "
                   "series: quadrature of the series density")
def cdf(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, x, as_json,
        method):
    """CDF of the product (n=1 only).

    By default, a 1-D integral of the conditional normal CDF of Y given X;
    ``--method series`` integrates the Bessel-series density instead,
    which checks that the series has unit mass.
    """
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
        if mp.n != 1:
            raise CaseMismatch(
                f"the CDF is implemented for n = 1, not n = {mp.n}")
        cdf_fn = (density.cdf_product_series if method == "series"
                  else density.cdf_product)
        value = cdf_fn(mp.base, x)
        _emit("cdf", mp, {"x": x, "cdf": value}, started, as_json)

    _run(body)


@cli.command("moments")
@_param_options
@click.option("--kmax", type=click.IntRange(min=0), default=8,
              show_default=True)
@click.option("--central", is_flag=True)
@click.option("--closed-form", is_flag=True)
@click.option("--exact", is_flag=True, help="report exact rationals")
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def moments_cmd(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, kmax,
                central, closed_form, exact, as_json, as_csv, out):
    """Raw or central moments by the Stein recursion."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
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
        if as_csv:
            vals = results["values"]
            _write_csv(out, ["k", results["kind"]],
                       [(k, float(v)) for k, v in enumerate(vals)])
        else:
            _emit("moments", mp, results, started, as_json, out)

    _run(body)


@cli.command()
@_param_options
@click.option("--which", type=click.Choice(sorted(_OPERATOR_BUILDERS)),
              required=True)
@click.option("--json", "as_json", is_flag=True)
def operator(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, which,
             as_json):
    """Print a Stein operator's coefficient table."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
        spec = _OPERATOR_BUILDERS[which](mp)
        results = {"which": which, "order": spec.order,
                   "coeffs": [{"j": j, "a0": c[0], "a1": c[1]}
                              for j, c in enumerate(spec.coeffs)]}
        _emit("operator", mp, results, started, as_json)

    _run(body)


@cli.command("stein-apply")
@_param_options
@click.option("--which", type=click.Choice(sorted(_OPERATOR_BUILDERS)),
              default=None)
@click.option("--f", "fspec", type=str, required=True, help="e.g. poly:3")
@click.option("--x", type=float, required=True)
@click.option("--identity", type=click.Choice(["a1a2", "a3a4"]), default=None,
              help="report the substitution-identity residual instead")
@click.option("--json", "as_json", is_flag=True)
def stein_apply(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, which,
                fspec, x, identity, as_json):
    """Apply a Stein operator to a built-in test function at a point."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
        f = _parse_test_function(fspec)
        if identity is not None:
            residual = stein.substitution_identity_check(mp, f, x, identity)
            _emit("stein-apply", mp,
                  {"identity": identity, "f": f.label, "x": x,
                   "residual": residual}, started, as_json)
            return
        if which is None:
            raise click.UsageError("provide --which or --identity")
        spec = _OPERATOR_BUILDERS[which](mp)
        value = float(stein.apply(spec, f, x))
        _emit("stein-apply", mp, {"which": which, "f": f.label, "x": x,
                                  "value": value}, started, as_json)

    _run(body)


@cli.command("stein-check")
@_param_options
@click.option("--which", type=click.Choice(sorted(_OPERATOR_BUILDERS)),
              default="a1", show_default=True)
@click.option("--f", "fspec", type=str, default="poly:2", show_default=True)
@click.option("--count", type=int, default=10 ** 6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def stein_check(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, which,
                fspec, count, seed, as_json):
    """Monte Carlo check that the operator's expectation vanishes."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
        spec = _OPERATOR_BUILDERS[which](mp)
        f = _parse_test_function(fspec)
        est = mc.estimate_stein_expectation(mp, spec, f,
                                            mc.SamplerConfig(seed, count))
        _emit("stein-check", mp,
              {"which": which, "f": f.label, "count": est.count,
               "estimate": est.mean, "stderr": est.stderr,
               "z_score": est.z_score()}, started, as_json)

    _run(body)


@cli.command()
@_param_options
@click.option("--t", type=float, default=None)
@click.option("--grid", type=str, default=None, help="lo:hi:count")
@click.option("--check-ode", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def cf(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, t, grid,
       check_ode, as_json):
    """Characteristic function of the mean, optionally with ODE residuals."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
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
        _emit("cf", mp, {"points": points}, started, as_json)

    _run(body)


@cli.command("ode-check")
@_param_options
@click.option("--x", "xs", type=float, multiple=True, required=True)
@click.option("--json", "as_json", is_flag=True)
def ode_check(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, xs, as_json):
    """Residual of the density ODE at the given points (unit variances)."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
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
        _emit("ode-check", mp, {"points": points}, started, as_json)

    _run(body)


@cli.command("opsearch")
@_param_options
@click.option("--order", type=int, default=3, show_default=True)
@click.option("--rows", type=int, default=None,
              help="number of monomial equations (default 2(order+1)+4)")
@click.option("--det", "want_det", is_flag=True,
              help="also report the determinant of the square system")
@click.option("--print-system", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def opsearch_cmd(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, order,
                 rows, want_det, print_system, as_json):
    """Exact-arithmetic search for a linear-coefficient operator."""
    started = time.perf_counter()

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
        ansatz = opsearch.OperatorAnsatz(order)
        n_rows = rows if rows is not None else ansatz.num_unknowns + \
            opsearch.EXTRA_ROWS
        result = opsearch.operator_exists(mp, order, n_rows)
        results = {"order": order, "rows": n_rows, "exists": result.exists,
                   "nullspace_dim": len(result.nullspace_basis),
                   "nullspace_basis": [list(v) for v in
                                       result.nullspace_basis]}
        if want_det:
            square = opsearch.moment_system(mp, ansatz, ansatz.num_unknowns)
            results["determinant"] = opsearch.determinant_exact(square)
        if print_system:
            system = opsearch.moment_system(mp, ansatz, n_rows)
            results["system"] = [[v for v in row] for row in system]
        _emit("opsearch", mp, results, started, as_json)

    _run(body)


@cli.command()
@_param_options
@click.option("--count", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def sample(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json, count, seed, out):
    """Emit reproducible samples of the mean of n products as CSV."""

    def body():
        mp = _mean_params(mu_x, mu_y, sigma_x, sigma_y, rho, n, params_json)
        cfg = mc.SamplerConfig(seed, count)
        with _output(out) as target:
            print("index,value", file=target)
            for i, batch in enumerate(mc.sample_mean_of_products(mp, cfg)):
                # one format call per batch, in _write_csv's row format
                rows = np.c_[np.arange(batch.size) + i * cfg.batch, batch]
                target.write("%d,%.17g\n" * batch.size
                             % tuple(rows.ravel().tolist()))

    _run(body)


def main():
    cli()


if __name__ == "__main__":
    main()
