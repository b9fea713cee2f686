"""The benchmark's parts and workloads: inputs, timed operations and output checks.

A part is one kind of traffic (``risk_draws``, ``risk_poisson``,
``estimate_cli``, ``verify``); a workload runs one pass of every part per pass
(see ``WORKLOADS``).  Every operation's output is checked against a digest recorded at the seed
commit (``refs/<workload>.txt``, written by ``record.py``).  Recorded digests
cover a fixed pool of operations per workload; the run's ``--seed`` chooses
which pool entries run and in which order, so the same seed gives the same
inputs and every input has a reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

# Fields present at the seed commit; fields added later are not compared.
RISK_FIELDS = ("n", "estimator", "mean_c_hat", "rmse", "bias_empirical", "bias_exact",
               "normalized_rmse", "trials")
ESTIMATE_KEYS = ("c_hat", "c_tilde", "c_seen", "regime", "L", "M", "coeffs_digest")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def load_program(root: Path) -> dict:
    """Import urncount from the checkout's src/ and return its modules by name."""
    src = root / "src"
    if not (src / "urncount" / "__init__.py").is_file():
        raise FileNotFoundError(f"no urncount package under {src}")
    sys.path.insert(0, str(src))
    import urncount
    from urncount import cli, estimator, harness, urn, verify

    return {"urncount": urncount, "cli": cli, "estimator": estimator,
            "harness": harness, "urn": urn, "verify": verify}


def digest(values) -> str:
    """Short hash of a value sequence; floats by their exact hex form."""
    text = "|".join(v.hex() if isinstance(v, float) else repr(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def load_refs(name: str) -> dict[str, str]:
    path = REFS / f"{name}.txt"
    refs = {}
    if not path.exists():
        return refs
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            refs[key] = value
    return refs


@dataclass(frozen=True)
class Op:
    """One timed call into the program.

    ``run`` is the timed part; ``check`` validates its output outside the
    timing and returns the output digest compared against ``refs[key]``
    (no comparison when ``key`` is empty).
    """

    key: str
    units: int  # trials, requests or passes completed when the op succeeds
    run: Callable[[], object]
    check: Callable[[object], str]
    part: str = ""  # the part the op belongs to; set by CombinedWorkload


class Workload:
    name: str
    expected_spans: tuple[str, ...] = ()

    def build_urns(self, modules) -> dict:
        """Urns built through the urn layer; timed as set-up."""
        return {}

    def prepare(self, modules, urns: dict, work: Path) -> list[str]:
        """Write input files into ``work`` (untimed); return notes to print."""
        return []

    def passes(self, seed: int) -> Iterator[list[Op]]:
        raise NotImplementedError

    def pool(self) -> Iterator[Op]:
        """Every operation that has a recorded reference, in pool order."""
        return iter(())

    def refs(self) -> dict[str, str]:
        return load_refs(self.name)


# -- risk curves ----------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    urn: str
    model: str
    n: int
    estimators: tuple[str, ...]


def _tiered_urn(U, tiers):
    """Colors 1..C in tier order; each tier is (number of colors, multiplicity)."""
    counts, cid = [], 1
    for colors, mult in tiers:
        counts.extend((cid + i, mult) for i in range(colors))
        cid += colors
    return U.UrnSpec.from_counts(counts)


class RiskWorkload(Workload):
    """Repeated run_risk_curve calls, one call per grid cell and round.

    A round runs every cell once, with master seed 1000 * round + cell.  The
    pool has ``ROUNDS`` rounds; a run walks them in a seeded order and wraps
    around, which repeats identical work (the caches are warm after the
    warm-up round either way).  ``urn`` keeps only the cells on that urn; cell
    indices, and so the reference keys, do not change.
    """

    ROUNDS = 32

    def __init__(self, name, urns, cells, trials, expected_spans, urn=None):
        self.name = name
        # name -> ("uniform", k, C) | ("tiers", ((colors, mult), ...))
        self.urn_specs = {u: spec for u, spec in urns.items() if urn in (None, u)}
        self.cells = cells
        self.cell_ids = tuple(c for c, cell in enumerate(cells) if urn in (None, cell.urn))
        self.trials = trials
        self.expected_spans = expected_spans
        self.sources: dict[str, tuple] = {}
        self.modules = None

    def build_urns(self, modules):
        U = modules["urn"]
        urns = {}
        for name, spec in self.urn_specs.items():
            if spec[0] == "uniform":
                urns[name] = U.make_uniform_support(spec[1], spec[2])
            else:
                urns[name] = _tiered_urn(U, spec[1])
        return urns

    def prepare(self, modules, urns, work):
        """Give each urn a config source and serve the prebuilt urn for it.

        run_risk_curve resolves its urn source on every call.  A user runs one
        experiment with many trials and builds the urn once, so the benchmark
        builds it once in set-up and hands it over through the name
        ``harness.resolve_urn``.  Skewed urns also go to files, so the configs
        stay runnable if that name goes away.
        """
        self.modules = modules
        U, H = modules["urn"], modules["harness"]
        by_source = {}
        for name, spec in self.urn_specs.items():
            if spec[0] == "uniform":
                source = spec
            else:
                path = work / f"urn_{self.name}_{name}.txt"
                path.write_text(U.serialize_urn(urns[name]) + "\n")
                source = ("file", str(path))
            self.sources[name] = source
            by_source[source] = urns[name]
        resolve = getattr(H, "resolve_urn", None)
        if resolve is None:
            return ["missing hook urncount.harness.resolve_urn: urns are rebuilt inside "
                    "every timed call"]

        def prebuilt(source, _resolve=resolve):
            urn = by_source.get(tuple(source))
            return urn if urn is not None else _resolve(source)

        H.resolve_urn = prebuilt
        return []

    def _op(self, r: int, c: int) -> Op:
        H = self.modules["harness"]
        cell = self.cells[c]
        cfg = H.ExperimentConfig(
            urn_source=self.sources[cell.urn], model=cell.model, n_grid=(cell.n,),
            trials=self.trials, master_seed=1000 * r + c, estimators=cell.estimators,
        )
        return Op(f"{r} {c}", self.trials, lambda: H.run_risk_curve(cfg), _check_risk)

    def passes(self, seed):
        order = np.random.default_rng(seed).permutation(self.ROUNDS)
        for i in itertools.count():
            r = int(order[i % self.ROUNDS])
            yield [self._op(r, c) for c in self.cell_ids]

    def pool(self):
        for r in range(self.ROUNDS):
            for c in self.cell_ids:
                yield self._op(r, c)


def _check_risk(rows) -> str:
    return digest([getattr(row, f) for row in rows for f in RISK_FIELDS])


BASE = ("naive", "l2", "auto")

# k = 1e5: 40000 singletons up to 20 colors of 1000 balls.
DRAWS_SKEW = ((40_000, 1), (5_000, 4), (500, 20), (50, 200), (20, 1_000))
DRAWS_NS = (10_000, 30_000, 70_000)

# k = 1e5: 50000 light colors (mean n/1e5) and 5 heavy colors (mean n/10 >= 30),
# which send every color to the scalar Poisson path.
POISSON_SKEW = ((50_000, 1), (5, 10_000))


def _poisson_cells(urn: str, k: int) -> list[Cell]:
    # interpolation only where n > k: see the README on the exact-table cap
    return [Cell(urn, "poissonized", n, BASE + (("interpolation",) if n > k else ()))
            for n in (k // 2, k, 2 * k)]


RISK_DRAWS = dict(
    name="risk_draws",
    urns={"uniform": ("uniform", 100_000, 50_000), "skewed": ("tiers", DRAWS_SKEW)},
    cells=tuple(Cell(urn, model, n, BASE)
                for model in ("multinomial", "hypergeometric", "bernoulli")
                for urn in ("uniform", "skewed") for n in DRAWS_NS),
    trials=1,
    expected_spans=("harness.run_risk_curve", "sampling.multinomial", "sampling.hypergeometric",
                    "sampling.bernoulli", "fingerprint", "estimator.select_params",
                    "estimator.build_estimator", "estimator.estimate"),
)

RISK_POISSON = dict(
    name="risk_poisson",
    urns={"uniform": ("uniform", 1_000_000, 500_000), "skewed": ("tiers", POISSON_SKEW)},
    cells=tuple(_poisson_cells("uniform", 1_000_000) + _poisson_cells("skewed", 100_000)),
    trials=4,
    expected_spans=("harness.run_risk_curve", "sampling.poissonized", "estimator.select_params",
                    "estimator.build_estimator", "estimator.estimate", "estimator.exact_bias"),
)


# -- estimate requests ----------------------------------------------------------

POOL_SEED = 1612_03375
BLOCKS = 1200  # each block: three --fingerprint requests and one --samples request
SAMPLE_FILES = 12
PASS_BLOCKS = 8


@dataclass(frozen=True)
class Request:
    k: int
    n: int
    source: str  # "fingerprint" or "samples"
    ref: int  # index of the fingerprint text or of the sample file


def _poisson_fingerprint(rng, colors: int, lam: float) -> dict[int, int]:
    """phi of ``colors`` iid Poisson(lam) counts, drawn as one multinomial."""
    top = int(lam + 12 * math.sqrt(lam) + 25)
    logpmf = [j * math.log(lam) - lam - math.lgamma(j + 1) for j in range(top + 1)]
    pmf = np.exp(np.array(logpmf))
    counts = rng.multinomial(colors, pmf / pmf.sum())
    return {j: int(c) for j, c in enumerate(counts) if j >= 1 and c > 0}


def estimate_pool():
    """The fixed request pool: sample arrays, fingerprint texts and blocks.

    Inputs meet the contracts the estimator is expected to enforce: every
    c_seen is at most k, and every nominal n is within about one Poisson
    standard deviation of the realized sample size (fingerprints: equal).
    (k, n) pairs are distinct across the pool, so every coefficient build is
    cold, as in a fresh CLI process.
    """
    rng = np.random.default_rng(POOL_SEED)
    samples = []
    for _ in range(SAMPLE_FILES):
        size = int(rng.integers(90_000, 110_001))
        colors = int(rng.integers(30_000, 80_001))
        ids = rng.choice(10**9, size=colors, replace=False) + 1
        cdf = np.cumsum((np.arange(colors) + 10.0) ** -0.7)
        samples.append(ids[np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")])
    seen_in = [int(np.unique(s).size) for s in samples]

    texts: list[str] = []
    blocks: list[list[Request]] = []
    pairs: set[tuple[int, int]] = set()
    for b in range(BLOCKS):
        block = []
        for _ in range(3):
            while True:
                k = int(10 ** rng.uniform(4, 9))
                ratio = rng.uniform(1.05, 4.0) if rng.random() < 0.4 else 10 ** rng.uniform(-3, 0)
                colors = max(1, int(k * rng.uniform(0.2, 1.0)))
                phi = _poisson_fingerprint(rng, colors, max(200.0, k * ratio) / colors)
                n = sum(j * c for j, c in phi.items())
                if phi and (k, n) not in pairs:
                    break
            pairs.add((k, n))
            block.append(Request(k, n, "fingerprint", len(texts)))
            texts.append("".join(f"{j} {c}\n" for j, c in sorted(phi.items())))
        s = b % SAMPLE_FILES
        while True:
            n = samples[s].size + int(rng.integers(-100, 101))
            if rng.random() < 0.3:
                k = int(rng.integers(seen_in[s], n))  # n > k: interpolation
            else:
                k = int(10 ** rng.uniform(math.log10(n), 9))
            if (k, n) not in pairs:
                break
        pairs.add((k, n))
        block.append(Request(k, n, "samples", s))
        blocks.append(block)
    return samples, texts, blocks


class EstimateWorkload(Workload):
    """In-process ``urncount estimate`` requests in a closed loop, one client.

    Blocks run in a seeded order with their four requests shuffled; a pass is
    ``PASS_BLOCKS`` blocks.  The pool is not reused: a run that exhausts it
    stops early, since repeated (k, n) pairs would hit the coefficient cache.
    """

    name = "estimate_cli"
    expected_spans = ("cli.main", "fingerprint", "estimator.select_params",
                      "estimator.build_estimator", "orthopoly.solve_l2",
                      "stirling.interp_coeffs", "estimator.estimate")

    def prepare(self, modules, urns, work):
        self.cli = modules["cli"]
        samples, texts, self.blocks = estimate_pool()
        self.paths = {}
        (work / "fp").mkdir()
        for i, text in enumerate(texts):
            path = work / "fp" / f"{i}.txt"
            path.write_text(text)
            self.paths["fingerprint", i] = str(path)
        for s, draws in enumerate(samples):
            path = work / f"samples_{s}.txt"
            path.write_text("\n".join(map(str, draws.tolist())) + "\n")
            self.paths["samples", s] = str(path)
        return []

    def _op(self, b: int, j: int) -> Op:
        req = self.blocks[b][j]
        argv = ["estimate", "--k", str(req.k), "--n", str(req.n),
                f"--{req.source}", self.paths[req.source, req.ref], "--json"]
        cli = self.cli
        return Op(f"{b} {j}", 1, lambda: call_cli(cli, argv),
                  lambda out: _check_estimate(out, req.k))

    def passes(self, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(BLOCKS)
        for start in range(0, BLOCKS - PASS_BLOCKS + 1, PASS_BLOCKS):
            yield [self._op(int(b), int(j))
                   for b in order[start:start + PASS_BLOCKS] for j in rng.permutation(4)]

    def pool(self):
        for b in range(BLOCKS):
            for j in range(4):
                yield self._op(b, j)


def _check_estimate(out, k: int) -> str:
    rc, text = out
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    lines = text.strip().splitlines()
    payload = json.loads(lines[-1]) if lines else {}
    if not payload.get("c_seen", 1) <= payload.get("c_hat", 0) <= k:
        raise CheckFailed(f"c_seen <= c_hat <= k={k} violated: {payload}")
    return digest([payload.get(key) for key in ESTIMATE_KEYS])


# -- verify ---------------------------------------------------------------------

class VerifyWorkload(Workload):
    """Full ``urncount verify`` passes, in process.

    verify has no inputs, so the seed changes nothing.  The report is not
    compared byte for byte: certifying the spectral bounds exactly changes the
    sigma_min values it prints.
    """

    name = "verify"
    expected_spans = ("cli.main", "verify.orthopoly", "verify.stirling", "verify.spectral",
                      "verify.estimator", "vandermonde.sigma_min",
                      "vandermonde.tm_modulus_check", "orthopoly.solve_l2",
                      "stirling.interp_coeffs", "estimator.select_params",
                      "estimator.build_estimator", "estimator.exact_bias")

    def prepare(self, modules, urns, work):
        self.cli = modules["cli"]
        return []

    def passes(self, seed):
        cli = self.cli
        while True:
            yield [Op("", 1, lambda: call_cli(cli, ["verify"]), _check_verify)]


def _check_verify(out) -> str:
    rc, text = out
    if rc != 0 or "VERIFY PASS" not in text:
        tail = text.strip().splitlines()[-1:] or [""]
        raise CheckFailed(f"verify exit code {rc}, last line {tail[0]!r}")
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class CombinedWorkload(Workload):
    """Several parts run as one workload: each pass is one pass of every part.

    Ops are tagged with their part, and their keys are prefixed with the
    part's name, as are the references.
    """

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts
        self.expected_spans = tuple(dict.fromkeys(
            span for part in parts for span in part.expected_spans))

    def build_urns(self, modules):
        return {(part.name, key): urn for part in self.parts
                for key, urn in part.build_urns(modules).items()}

    def prepare(self, modules, urns, work):
        notes = []
        for part in self.parts:
            own = {key: urn for (name, key), urn in urns.items() if name == part.name}
            notes += part.prepare(modules, own, work)
        return notes

    def passes(self, seed):
        for passes in zip(*(part.passes(seed) for part in self.parts)):
            yield [dataclasses.replace(op, key=f"{part.name} {op.key}" if op.key else "",
                                       part=part.name)
                   for part, ops in zip(self.parts, passes) for op in ops]

    def refs(self):
        return {f"{part.name} {key}": value
                for part in self.parts for key, value in load_refs(part.name).items()}


# Each part whole, as record.py records it.
PARTS = {
    "risk_draws": lambda: RiskWorkload(**RISK_DRAWS),
    "risk_poisson": lambda: RiskWorkload(**RISK_POISSON),
    "estimate_cli": EstimateWorkload,
    "verify": VerifyWorkload,
}


def _on_urn(urn: str):
    """Both risk parts on one urn shape, plus the two CLI parts, which have no urn.

    Every end-to-end metric is taken from the ops of its own part, so each
    workload needs every part; the two workloads differ in the urns.
    """
    return lambda: CombinedWorkload(urn, [
        RiskWorkload(**RISK_DRAWS, urn=urn), RiskWorkload(**RISK_POISSON, urn=urn),
        EstimateWorkload(), VerifyWorkload()])


# The workloads BENCHMARK.json gates.
WORKLOADS = {"uniform": _on_urn("uniform"), "skewed": _on_urn("skewed")}
