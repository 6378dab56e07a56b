"""normprod benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload pdf --seed 1 --seconds 36 --trace 0

Several workloads may be named; each then runs in its own process, one
after the other.  Run from the root of a checkout; the library is
imported from ``src`` of that checkout.  A run makes passes over the
workload's operation list until ``--seconds`` have elapsed; the first
``workloads.MIN_PASSES`` passes are always whole, so every operation is
timed at least that often.  Each operation is timed alone (see
``Runner`` for repeats of short ones) and checked outside the timed
region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
warm-up pass, then passes untraced and as many traced, runs the CLI
probe, and prints the per-layer metrics, writing the spans to
``perfbench/out/``.  Every metric is printed as ``name value unit`` and
the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Pin native thread pools before numpy is imported here or in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import mpmath  # noqa: E402  (numpy and scipy after the pinning above)
import numpy as np  # noqa: E402
import scipy.integrate  # noqa: E402
import scipy.special  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
COLD_STARTS = 5
REPEATS = 3
REPEAT_BELOW_S = 0.05
IMPORT_PROBES = 3
PICK_AMONG_CPUS = 4
#: The speed probe's time on the reference machine, a 2-vCPU Intel Xeon
#: virtual machine at about its fastest; latencies are reported at this
#: speed.
REF_PROBE_S = 450e-6
SAMPLE_EVERY_S = 0.1
PROBE_X = np.linspace(-3.0, 3.0, 32768)
PROBE_K = np.linspace(0.1, 20.0, 2048)
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath", "click", "normprod")
NPROC = len(os.sched_getaffinity(0))  # before CpuPicker narrows it


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------- passes --

def _interpreter_loop():
    total = 0
    for i in range(2000):
        total += i * i


def _probe_integrand(u):
    return math.exp(-u * u) * math.cos(5 * u)


def _probe_work():
    """A fixed mix of the kinds of work normprod does, none of it in
    normprod: interpreter loop, Fraction arithmetic, numpy over 256 KiB,
    a scipy special function, scipy quadrature of a Python callback and
    mpmath at 30 digits.  The host's slow phases slow these by different
    factors (memory-bound numpy and big-footprint code more than a tight
    loop), so the mix follows the library better than any one part."""
    _interpreter_loop()
    f = Fraction(1, 3)
    for k in range(1, 30):
        f = f * Fraction(k, k + 1) + Fraction(1, k)
    np.exp(PROBE_X).sum()
    scipy.special.kve(1.5, PROBE_K).sum()
    scipy.integrate.quad(_probe_integrand, 0.0, 10.0)
    with mpmath.workdps(30):
        mpmath.besselk(2.5, 1.3)


def speed_probe() -> float:
    """Seconds of ``_probe_work`` (fastest of 3) where the process runs."""
    fastest = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _probe_work()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


class CpuPicker:
    """Moves this process to whichever allowed CPU runs a fixed loop
    fastest right now.

    On a shared 2-vCPU virtual machine, each vCPU has its own slow phases
    of 5-45 s (another tenant on the same core), rarely at the same time
    on both.  Picking before each operation keeps those phases out of the
    timings; children inherit the choice.  Only this process's own
    affinity is changed, within the CPUs it was given.

    The host as a whole also drifts by 30% and more over minutes: see
    ``speed_scale``.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))[:PICK_AMONG_CPUS]

    def pick(self):
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {min(self.cpus, key=self._probe)})

    @staticmethod
    def _probe(cpu) -> float:
        os.sched_setaffinity(0, {cpu})
        fastest = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _interpreter_loop()
            fastest = min(fastest, time.perf_counter() - start)
        return fastest


PICKER = CpuPicker()


def speed_scale(probes: list[float]) -> float:
    """Factor that takes a wall time measured between the first and the
    last of ``probes`` to the reference machine's speed (REF_PROBE_S).

    Timed in turn with a 3000-step interpreter loop for 90 s on the
    reference host, three pdf operations (1.3 ms, 3.6 ms, 0.22 s at best)
    had 7.5 s slices whose medians differed by up to 1.66-1.74x, while
    the slice medians of their ratios to the loop differed by
    1.23-1.35x: the host's slow phases slow the library and the loop
    alike, though not by the same factor.  In 15-20 s slices of 100-150 s
    recordings, op_ms_p50 spread (IQR over median) 0.24 unscaled on pdf,
    0.13 scaled by the loop plus a numpy pass and 0.07 scaled by the
    library-like mix of ``_probe_work`` (verify: 0.15, 0.10, 0.08).
    """
    return REF_PROBE_S / statistics.fmean(probes)


class SpeedSampler:
    """Runs the speed probe every SAMPLE_EVERY_S seconds of a timed call,
    from a SIGALRM handler, so that a long call's scale follows the
    host's speed during the call and not only at its ends.  Handlers run
    between bytecodes of the main thread, so a probe never lands inside
    a C call; ``spent`` is the handlers' time, which the caller takes off
    the call's."""

    def __init__(self, probes: list[float]):
        self.probes = probes
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(speed_probe())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class Runner:
    """Runs passes over the op list, timing each op and checking it.

    A shared host flips between fast and slow phases at the millisecond
    scale, so one timing of a short op is mostly noise.  An op faster
    than REPEAT_BELOW_S is therefore called REPEATS times back to back
    and keeps the fastest call of each pass, taken to the reference speed
    by ``speed_scale`` with the probes before, during (untraced runs
    only, see ``SpeedSampler``) and after the calls.  The op's latency
    (``latency``) is the lower quartile of these per-pass times: the
    scaled times have no hard floor, as raw times do, so their minimum
    would pick the passes whose probes erred most; the quartile still
    discounts the first pass, which fills mpmath's caches.
    ``wall_best`` keeps the unscaled fastest call.  The traced run
    (repeats=1) times every call once, so span counts are per operation.
    """

    def __init__(self, ops, tracer=None, repeats=REPEATS):
        self.ops = ops
        self.tracer = tracer
        self.repeats = repeats
        self.scaled = [[] for _ in ops]   # per pass: fastest call, scaled
        self.wall_best = [math.inf] * len(ops)
        self.scales = []
        self.total_s = 0.0    # wall time inside timed calls, repeats included
        self.attempted = 0
        self.failures = []
        self.findings = {}
        self.digits = []
        self.results = []     # (latency, result) of each successful call

    def _timed(self, op, probes):
        """(result, error, seconds) of one call; in untraced runs the
        speed samples taken during it are appended to ``probes``."""
        if self.tracer:
            self.tracer.op_id += 1
            self.tracer.active = True
            start = time.perf_counter()
            try:
                return op.call(), None, time.perf_counter() - start
            except Exception as exc:  # a failed op is counted, not fatal
                return None, exc, time.perf_counter() - start
            finally:
                self.tracer.active = False
        with SpeedSampler(probes) as sampler:
            start = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, exc
            seconds = time.perf_counter() - start
        return result, error, seconds - sampler.spent

    def run_pass(self, deadline=math.inf):
        for i, op in enumerate(self.ops):
            if time.perf_counter() >= deadline:
                return
            self.attempted += 1
            PICKER.pick()
            probes = [speed_probe()]
            result, error, latency = self._timed(op, probes)
            calls = [latency]
            while (error is None and len(calls) < self.repeats
                   and calls[0] < REPEAT_BELOW_S):
                result, error, latency = self._timed(op, probes)
                calls.append(latency)
            probes.append(speed_probe())
            scale = speed_scale(probes)
            self.scales.append(scale)
            self.total_s += sum(calls)
            self.wall_best[i] = min(self.wall_best[i], *calls)
            self.scaled[i].append(min(calls) * scale)
            if error is not None:
                self.failures.append((op, f"{type(error).__name__}: {error}"))
                continue
            check = op.check(result)
            if not check.ok:
                self.failures.append((op, check.detail))
            if check.finding:
                self.findings[op.label] = (op, check.detail)
            if check.digits is not None:
                self.digits.append(check.digits)
            self.results.append((calls[0], result))

    def latency(self) -> list[float]:
        return [float(np.percentile(times, 25)) for times in self.scaled]

    def run_for(self, seconds, min_passes=1):
        """Whole passes until ``min_passes`` are done, then passes until
        ``seconds`` have elapsed, the last one cut at that moment.
        Returns the number of passes begun."""
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes < min_passes or time.perf_counter() < deadline:
            self.run_pass(math.inf if passes < min_passes else deadline)
            passes += 1
        return passes


# ------------------------------------------------------------ set-up --

def cold_starts(workload: str) -> list[float]:
    """Set-up seconds of COLD_STARTS fresh interpreters, at the reference
    speed (see ``speed_scale``)."""
    times = []
    for _ in range(COLD_STARTS):
        PICKER.pick()
        before = speed_probe()
        proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"), workload],
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr[-500:]}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        times.append(seconds * speed_scale([before, speed_probe()]))
    return times


def import_breakdown() -> dict[str, float]:
    """Import milliseconds of ``normprod.cli`` from ``python -X importtime``,
    median of probes: the total and the self time of every module of each
    package in IMPORT_PACKAGES."""
    probes = []
    for _ in range(IMPORT_PROBES):
        PICKER.pick()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import normprod.cli"], capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        total = 0
        per_package = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cumulative_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            name = fields[2].rstrip()
            package = name.strip().split(".")[0]
            if package in per_package:
                per_package[package] += self_us
            if name.startswith(" normprod"):  # a top-level import (one space)
                total += cumulative_us
        out = {"import_ms": total / 1000}
        out.update({f"import_ms.{k}": v / 1000 for k, v in per_package.items()})
        probes.append(out)
    return {k: _median([p[k] for p in probes]) for k in probes[0]}


# ----------------------------------------------------------- metrics --

def latency_metrics(best_s, tail_q):
    ms = [1000 * v for v in best_s]
    return {
        "ops_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "op_ms_p50": (_median(ms), "ms"),
        "op_ms_tail": (_percentile(ms, tail_q), "ms"),
    }


def end_to_end(runner, tail_q):
    """Metrics of the timed passes; setup_s is added by the caller."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **latency_metrics(runner.latency(), tail_q),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "min_digits": (min(runner.digits) if runner.digits else 0.0, "digits"),
    }


def per_layer(tracer, untraced, runner, cli_probe, tail_q):
    """Metrics of the traced passes, plus the CLI and import probes."""
    untraced_s, traced_s = untraced.total_s, runner.total_s
    failures = len(runner.failures) + len(cli_probe.failures)
    attempted = runner.attempted + cli_probe.attempted
    cli_results = [(lat, _envelope_ms(res)) for lat, res in cli_probe.results]
    spans = tracer.by_name()

    def entry(name):
        return spans.get(name, {"durations": [], "self_s": 0.0, "attrs": [],
                                "children": {}})

    out = {}

    def add(name, value, unit):
        out[name] = (float(value), unit)

    def calls_self(name, stats=("calls", "self_s")):
        e = entry(name)
        ms = [1000 * d for d in e["durations"]]
        values = {"calls": (len(ms), "count"), "self_s": (e["self_s"], "s"),
                  "ms_p50": (_median(ms), "ms"),
                  "ms_tail": (_percentile(ms, tail_q), "ms")}
        for stat in stats:
            add(f"{name}.{stat}", *values[stat])

    calls_self("density.pdf_product", ("calls", "self_s", "ms_p50", "ms_tail"))
    terms = [a["terms"] for a in entry("density.pdf_product")["attrs"]]
    add("density.pdf_product.terms_mean", sum(terms) / len(terms) if terms else 0,
        "count")
    add("density.pdf_product.terms_max", max(terms, default=0), "count")
    calls_self("density.pdf_single_zero_mean")
    calls_self("density.pdf_mean_zero_means")
    calls_self("density.cdf_product", ("calls", "self_s", "ms_p50"))
    calls_self("density.mean_zero_means_derivatives", ("calls", "self_s", "ms_p50"))
    calls_self("density.finite_difference_derivatives", ("self_s",))
    add("density.finite_difference_derivatives.child_pdf_calls",
        entry("density.finite_difference_derivatives")["children"].get(
            "density.pdf_product", 0), "count")
    calls_self("bessel.log_bessel_k_sequence")

    sampler = entry("mc.sample_mean_of_products")
    samples = sum(a["items"] for a in sampler["attrs"])
    batches = sum(1 for a in sampler["attrs"] if a["items"])
    add("mc.sample_mean_of_products.batches", batches, "count")
    add("mc.sample_mean_of_products.samples", samples, "count")
    add("mc.sample_mean_of_products.self_s", sampler["self_s"], "s")
    add("mc.samples_per_s", samples / sampler["self_s"] if sampler["self_s"] else 0,
        "1/s")
    requested = tracer.requested_samples
    add("mc.samples_drawn_per_requested", samples / requested if requested else 0,
        "ratio")

    apply_e = entry("stein.apply")
    add("stein.apply.calls", len(apply_e["durations"]), "count")
    add("stein.apply.points", sum(a["points"] for a in apply_e["attrs"]), "count")
    add("stein.apply.self_s", apply_e["self_s"], "s")

    add("charfn.cf_mean.calls", len(entry("charfn.cf_mean")["durations"]), "count")
    for name in ("cf_grid", "cf_raw_moments", "cf_ode_residual"):
        calls_self(f"charfn.{name}")
    for name in ("raw_moments_exact", "central_moments_exact", "raw_moments",
                 "closed_form_four"):
        calls_self(f"moments.{name}")
    for name in ("moment_system", "determinant_exact", "nullspace_exact"):
        calls_self(f"opsearch.{name}", ("self_s",))

    imports = import_breakdown()
    process_ms = [1000 * wall for wall, _ in cli_results]
    compute_ms = [timing for _, timing in cli_results]
    add("cli.process_ms_p50", _median(process_ms), "ms")
    for key, value in imports.items():
        add(f"cli.{key}", value, "ms")
    add("cli.compute_ms", _median(compute_ms), "ms")
    add("cli.other_ms", _median(process_ms) - imports["import_ms"]
        - _median(compute_ms) if process_ms else 0.0, "ms")
    add("trace.overhead_frac", traced_s / untraced_s - 1, "ratio")
    add("fail_frac", failures / attempted, "ratio")
    return out


# -------------------------------------------------------------- main --

def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__}


def report(metrics, runners, env_info, extra):
    print("environment " + json.dumps(env_info))
    for key, value in extra.items():
        print(f"{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = sum(r.attempted for r in runners)
    failures = [f for r in runners for f in r.failures]
    findings = {k: v for r in runners for k, v in r.findings.items()}
    print(f"attempted {attempted}")
    print(f"failed {len(failures)} (fail_frac {len(failures) / attempted:.6g})")
    for op, detail in failures[:50]:
        print(f"FAILED {op.kind} {op.label}: {detail}")
    for op, detail in findings.values():
        print(f"FINDING {op.kind} {op.label}: {detail}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=("pdf", "cdf-ode", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if len(args.workload) > 1:
        # one process per workload, so peak RSS and set-up stay its own
        for workload in args.workload:
            code = subprocess.run([
                sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0
    args.workload = args.workload[0]

    if not (SRC / "normprod" / "__init__.py").is_file():
        print(f"error: no normprod source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # children (CLI probe, cold starts, import probes) import from SRC too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]))

    import workloads  # imports normprod from SRC
    import normprod
    if Path(normprod.__file__).resolve().parent != SRC / "normprod":
        print(f"error: normprod imported from {normprod.__file__}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    for op in workloads.warmups(args.workload):
        op.call()
    tail_q = workloads.tail_percentile(len(ops))
    extra = {"workload": args.workload, "seed": args.seed,
             "operations_per_pass": len(ops), "op_ms_tail_percentile": tail_q}

    if not args.trace:
        runner = Runner(ops)
        extra["passes"] = runner.run_for(args.seconds, workloads.MIN_PASSES)
        metrics = end_to_end(runner, tail_q)
        runners = [runner]
        extra["speed_scale_median"] = f"{_median(runner.scales):.4f}"
        extra["unscaled"] = " ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit)
            in latency_metrics(runner.wall_best, tail_q).items())
        setup_times = cold_starts(args.workload)
        metrics["setup_s"] = (_median(setup_times), "s")
        extra["setup_samples_s"] = " ".join(f"{t:.4f}" for t in setup_times)
    else:
        from spans import Tracer
        # an uncounted first pass fills the oracle caches and whatever the
        # library warms on first use, so untraced and traced passes compare
        # like with like; its length sets how many whole passes each makes
        start = time.perf_counter()
        Runner(ops, repeats=1).run_pass()
        passes = max(1, round(args.seconds / 2 / (time.perf_counter() - start)))
        untraced = Runner(ops, repeats=1)
        untraced.run_for(0, min_passes=passes)
        tracer = Tracer(requested_samples=sum(op.samples for op in ops) * passes)
        tracer.install()
        runner = Runner(ops, tracer, repeats=1)
        runner.run_for(0, min_passes=passes)
        tracer.uninstall()
        cli_probe = Runner(workloads.cli_probe_ops(), repeats=1)
        cli_probe.run_pass()
        extra["passes"] = f"{passes} untraced + {passes} traced"
        metrics = per_layer(tracer, untraced, runner, cli_probe, tail_q)
        runners = [runner, cli_probe]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        extra["spans"] = spans_path.relative_to(ROOT)
    report(metrics, runners, environment(), extra)
    return 0


def _envelope_ms(result) -> float:
    try:
        return float(json.loads(result.stdout)["timing_ms"])
    except (ValueError, KeyError):
        return 0.0


if __name__ == "__main__":
    sys.exit(main())
