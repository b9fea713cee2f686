"""urncount benchmark: one workload per process, one thread per process.

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured with no spans installed; with
--trace 1 they are the per-layer ones (see README.md).
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, VERIFY_SUITES  # noqa: E402
from speed import REFERENCE_S, probe  # noqa: E402
from workloads import HERE, WORKLOADS, CheckFailed, load_program  # noqa: E402

SETUP_REPS = 9
SETUP_PROBES = 3  # host speed probes between set-up repetitions
IMPORT_CODE = "import time; t = time.perf_counter(); import urncount; print(time.perf_counter() - t)"


class Runner:
    """Runs passes of operations, times each, checks each, counts failures.

    Every op is timed between two host speed probes (the one after an op is
    the one before the next), and recorded with the slowdown they give.
    """

    def __init__(self, refs: dict[str, str]):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs = hashlib.sha256()
        self.last_probe: float | None = None

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {op.key or '-'}: {message}")

    def run_op(self, op) -> tuple[float, float, int]:
        """Returns (seconds, host slowdown around the op, units completed:
        ``op.units``, or 0 if it failed)."""
        self.attempted += 1
        before = self.last_probe if self.last_probe is not None else probe()
        t0 = perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # the op failed; keep measuring the rest
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        self.last_probe = probe()
        return dt, (before + self.last_probe) / (2 * REFERENCE_S), self._units(op, out, error)

    def _units(self, op, out, error: str | None) -> int:
        if error is None:
            try:
                got = op.check(out)
            except (CheckFailed, AttributeError, KeyError, TypeError, ValueError) as exc:
                error = f"check: {exc}"
            else:
                self.outputs.update(f"{op.key}={got};".encode())
                if op.key and self.refs.get(op.key) != got:
                    error = f"output {got} != reference {self.refs.get(op.key)}"
        if error is None:
            return op.units
        self._fail(op, error)
        return 0

    def run_phase(self, passes, seconds: float, count: int | None = None) -> list[list[tuple]]:
        """Whole passes until ``count`` passes ran, or else until ``seconds`` of
        timed work; stops early if the pass source runs dry.  A pass is a list
        of (part, seconds, slowdown, units completed), one per op."""
        records = []
        timed = 0.0
        self.last_probe = None
        while (len(records) < count) if count is not None else (timed < seconds):
            ops = next(passes, None)
            if ops is None:
                print(f"note: input pool exhausted after {len(records)} passes")
                break
            records.append([(op.part, *self.run_op(op)) for op in ops])
            timed += pass_seconds(records[-1])
        return records


def pass_seconds(rec) -> float:
    return sum(dt for _, dt, _, _ in rec)


def cache_sizes() -> str:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out.append(f"L{level}={size}")
    return " ".join(out) or "L2=? L3=?"


def slowdown(probes: list[float]) -> float:
    return statistics.median(probes) / REFERENCE_S


def setup_reps(step) -> list[tuple[float, float]]:
    """Run ``step`` (which returns its own seconds) SETUP_REPS times.

    Returns (seconds, host slowdown around the repetition) for each; the
    slowdown is the mean of the probe medians just before and just after.
    """
    reps = []
    before = slowdown([probe() for _ in range(SETUP_PROBES)])
    for _ in range(SETUP_REPS):
        seconds = step()
        after = slowdown([probe() for _ in range(SETUP_PROBES)])
        reps.append((seconds, (before + after) / 2))
        before = after
    return reps


def import_reps(src: Path) -> list[tuple[float, float]]:
    """Fresh-interpreter ``import urncount`` times."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def step():
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        return float(proc.stdout)

    return setup_reps(step)


def urn_reps(workload, modules):
    """Builds of the workload's urns; returns the last set built and the reps."""
    built = {}

    def step():
        built.clear()  # release the previous set before building the next
        t0 = perf_counter()
        built["urns"] = workload.build_urns(modules)
        return perf_counter() - t0

    reps = setup_reps(step)
    return built["urns"], reps


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def part_ops(records, part: str) -> list[tuple[float, float, int]]:
    return [op[1:] for rec in records for op in rec if op[0] == part]


def rate(records, part: str, what: str) -> tuple[float, str, str]:
    """Units completed per second of the part's own calls, at reference speed."""
    ops = part_ops(records, part)
    units = sum(u for _, _, u in ops)
    seconds = sum(dt for dt, _, _ in ops)
    scaled = sum(dt / slow for dt, slow, _ in ops)
    return (units / scaled, "1/s",
            f"{units} {what} in {seconds:.3f} s of {part} calls, {units / seconds:.4g}/s measured")


def scaled_setup_s(reps: list[tuple[float, float]]) -> float:
    """Median over repetitions of seconds divided by the slowdown around each."""
    return statistics.median(seconds / slow for seconds, slow in reps)


def end_to_end(records, imports, builds) -> dict:
    """Each metric from the ops of the part it is named for, at reference speed.

    Every time is divided by the host slowdown probed around it (see
    speed.py).  Latency percentiles are taken within each timed pass and
    averaged over passes.
    """
    def latency(q: int, scaled: bool) -> float:
        per_pass = [[dt / slow if scaled else dt for p, dt, slow, units in rec
                     if p == "estimate_cli" and units] for rec in records]
        return statistics.fmean(percentile(t, q) for t in per_pass if t)

    requests = [sum(1 for *_, units in part_ops([rec], "estimate_cli") if units)
                for rec in records]
    where = f"per request, mean over {len(requests)} passes of {sum(requests)} requests"
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (scaled_setup_s(imports) + scaled_setup_s(builds), "s",
                    f"import + urns, medians of {SETUP_REPS}; measured minima "
                    f"{min(s for s, _ in imports):.4f} s + {min(s for s, _ in builds):.4f} s"),
        "risk_draws.trials_per_s": rate(records, "risk_draws", "trials"),
        "risk_poisson.trials_per_s": rate(records, "risk_poisson", "trials"),
        "estimate_cli.latency_p50_s": (
            latency(50, True), "s", f"{where}, {latency(50, False):.4g} s measured"),
        "estimate_cli.latency_p90_s": (
            latency(90, True), "s", f"{where}, {latency(90, False):.4g} s measured"),
        "verify.passes_per_s": rate(records, "verify", "passes"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
    }


def per_layer(tr: Tracer, wall: float, untraced_wall: float, urn_build_s: float) -> dict:
    m = {"urn.build_s": (urn_build_s, "s")}
    for model in ("multinomial", "hypergeometric", "bernoulli", "poissonized"):
        m[f"sampling.{model}.busy_s"] = (tr.busy(f"sampling.{model}"), "s")
        m[f"sampling.{model}.calls"] = (tr.calls(f"sampling.{model}"), "count")
    m["sampling.draws"] = (tr.counts["sampling.draws"], "count")
    m["fingerprint.busy_s"] = (tr.busy("fingerprint"), "s")
    m["fingerprint.calls"] = (tr.calls("fingerprint"), "count")
    m["estimator.select_params.busy_s"] = (tr.busy("estimator.select_params"), "s")
    cold_calls, cold_s = tr.kind("estimator.build_estimator.cold")
    warm_calls, warm_s = tr.kind("estimator.build_estimator.warm")
    m["estimator.build_estimator.cold_s"] = (cold_s, "s")
    m["estimator.build_estimator.warm_s"] = (warm_s, "s")
    m["estimator.build_estimator.hit_ratio"] = (
        warm_calls / (cold_calls + warm_calls) if cold_calls + warm_calls else 0.0, "ratio")
    for span in ("orthopoly.solve_l2", "stirling.interp_coeffs", "estimator.estimate"):
        m[f"{span}.busy_s"] = (tr.busy(span), "s")
        m[f"{span}.calls"] = (tr.calls(span), "count")
    for span in ("estimator.exact_bias", "vandermonde.sigma_min", "vandermonde.tm_modulus_check"):
        m[f"{span}.busy_s"] = (tr.busy(span), "s")
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.busy_s"] = (tr.busy(f"verify.{suite}"), "s")
    m["harness.run_risk_curve.self_s"] = (tr.self_time("harness.run_risk_curve"), "s")
    m["cli.main.self_s"] = (tr.self_time("cli.main"), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.accounted_ratio"] = (tr.total_self() / wall if wall else 0.0, "ratio")
    m["trace.overhead_ratio"] = (wall / untraced_wall if untraced_wall else 0.0, "ratio")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description="urncount benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    try:
        modules = load_program(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    refs = workload.refs()
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, root, modules, workload, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root, modules, workload, refs, work) -> int:
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} {cache_sizes()} threads=1")
    imports = import_reps(root / "src")
    urns, builds = urn_reps(workload, modules)
    for note in workload.prepare(modules, urns, work):
        print(f"note: {note}")
    runner = Runner(refs)
    passes = workload.passes(args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(modules)
        for name in tracer.missing:
            print(f"trace: missing hook {name}")

    runner.run_phase(passes, 0.0, 1)  # warm-up: fills the caches, checked, not timed
    if tracer is None:
        records = runner.run_phase(passes, args.seconds)
        wall = sum(map(pass_seconds, records))
        print(f"workload {workload.name} seed {args.seed}: {len(records)} timed passes "
              f"in {wall:.3f} s")
        print("pass_seconds = " + " ".join(f"{pass_seconds(rec):.4f}" for rec in records))
        idle = [part.name for part in workload.parts if not any(
            units for _, _, units in part_ops(records, part.name))]
        if idle:
            print(f"no timed operation of {', '.join(idle)} completed",
                  *runner.errors, sep="\nfailure: ")
            return 1
        slows = [slow for rec in records for _, _, slow, _ in rec]
        print(f"host slowdown around the timed ops: median {statistics.median(slows):.4f}, "
              f"range {min(slows):.4f}-{max(slows):.4f} (1 = {REFERENCE_S} s per probe)")
        metrics = end_to_end(records, imports, builds)
    else:
        tracer.reset()
        half = args.seconds / 2
        traced = runner.run_phase(passes, half)
        tracer.uninstall()
        untraced = runner.run_phase(passes, half, len(traced))
        wall = sum(map(pass_seconds, traced))
        # per pass: the untraced phase is shorter if the input pool runs dry
        untraced_wall = (sum(map(pass_seconds, untraced)) * len(traced)
                         / max(1, len(untraced)))
        print(f"workload {workload.name} seed {args.seed}: {len(traced)} traced and "
              f"{len(untraced)} untraced passes, traced wall {wall:.3f} s")
        for span in workload.expected_spans:
            if tracer.calls(span) == 0:
                print(f"trace: span {span} recorded no calls on {workload.name}")
        metrics = {name: (value, unit, "") for name, (value, unit)
                   in per_layer(tracer, wall, untraced_wall, min(s for s, _ in builds)).items()}

    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f" ({note})" if note else ""))
    ratio = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"failed_ratio = {ratio!r} ratio ({runner.failed} of {runner.attempted} operations)")
    for err in runner.errors:
        print(f"failure: {err}")
    print(f"outputs_sha256 = {runner.outputs.hexdigest()}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
