"""Reproducible experiments: risk curves, hard pairs, correlation decay.

Every trial gets its own stream keyed by (master_seed, n-index, trial), so
enlarging the sample-size grid never perturbs earlier columns, and
aggregation runs in trial order so output bytes are reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .estimator import (
    ParameterizationError,
    build_estimator,
    estimate,
    exact_bias,
    naive_coefficients,
    select_params,
)
from .fingerprint import Fingerprint, fingerprint_from_count_values
from .rng import RngStream
from .sampling import (
    bernoulli_counts,
    hypergeometric_counts,
    multinomial_counts,
    poissonized_color_counts,
)
from .urn import UrnSpec, make_hard_pair, make_uniform_support, parse_urn

CSV_SCHEMA = 1

MODEL_ALIASES = {
    "multi": "multinomial", "multinomial": "multinomial",
    "hyper": "hypergeometric", "hypergeometric": "hypergeometric",
    "bern": "bernoulli", "bernoulli": "bernoulli",
    "poi": "poissonized", "poissonized": "poissonized",
}
ESTIMATOR_TAGS = ("naive", "l2", "interpolation", "auto")


@dataclass(frozen=True)
class ExperimentConfig:
    urn_source: tuple  # ("file", path) | ("uniform", k, C) | ("hard_pair", k, delta)
    model: str
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int
    estimators: tuple[str, ...]
    outputs: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        if self.model not in MODEL_ALIASES.values():
            raise ValueError(f"model: unknown tag {self.model!r}")
        if not self.n_grid:
            raise ValueError("n_grid: must be nonempty")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid: entries must be >= 1")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid: must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials: must be >= 1")
        for tag in self.estimators:
            if tag not in ESTIMATOR_TAGS:
                raise ValueError(f"estimators: unknown tag {tag!r}")
        if self.urn_source[0] == "hard_pair" and tuple(self.estimators) != ("auto",):
            raise ValueError(
                f"estimators: hard_pair experiments run only 'auto', got {list(self.estimators)}")
        for fmt in self.outputs:
            if fmt not in ("csv", "json"):
                raise ValueError(f"outputs: unknown format {fmt!r}")


@dataclass(frozen=True)
class RiskRow:
    n: int
    estimator: str
    mean_c_hat: float
    rmse: float
    bias_empirical: float
    bias_exact: float | None
    normalized_rmse: float
    trials: int


@dataclass(frozen=True)
class CorrelationRow:
    j: int
    corr: float | None
    bound: float


@dataclass(frozen=True)
class HardPairRow:
    n: int
    urn: str
    c_true: int
    fail_fraction: float
    mean_c_hat: float


def resolve_urn(source: tuple) -> UrnSpec:
    kind = source[0]
    if kind == "file":
        return parse_urn(Path(source[1]).read_text())
    if kind == "uniform":
        return make_uniform_support(source[1], source[2])
    raise ValueError(f"urn: cannot resolve source {source!r}")


def _check_model_size(model: str, n_grid, k: int) -> None:
    if model in ("hypergeometric", "bernoulli") and max(n_grid) > k:
        raise ValueError(f"n_grid: model {model} needs n <= k = {k}")


def _draw_fingerprint(urn: UrnSpec, model: str, n: int, rng: RngStream) -> Fingerprint:
    """One sample's fingerprint: the model's per-color counts, then one bincount."""
    if model == "poissonized":
        counts = poissonized_color_counts(urn, n, rng)
    elif model == "multinomial":
        counts = multinomial_counts(urn, n, rng)
    elif model == "hypergeometric":
        counts = hypergeometric_counts(urn, n, rng)
    elif model == "bernoulli":
        counts = bernoulli_counts(urn, n / urn.k, rng)
    else:
        raise ValueError(f"model: unknown tag {model!r}")
    return fingerprint_from_count_values(counts)


def _plan(tag: str, k: int, n: int) -> tuple:
    """(tag, params, coeffs) for one estimator tag; naive has no params."""
    if tag == "naive":
        return tag, None, naive_coefficients()
    params = select_params(k, n, regime=None if tag == "auto" else tag)
    try:
        return tag, params, build_estimator(params)
    except ParameterizationError as exc:
        raise ParameterizationError(f"estimators: tag {tag!r} at k={k}, n={n}: {exc}") from None


def run_risk_curve(cfg: ExperimentConfig) -> list[RiskRow]:
    """Monte-Carlo risk of each estimator over the n grid.

    The same per-trial sample feeds every estimator (paired comparison); the
    exact bias oracle is attached on Poisson-model runs.
    """
    urn = resolve_urn(cfg.urn_source)
    k, c_true = urn.k, urn.C
    _check_model_size(cfg.model, cfg.n_grid, k)
    # every cell's coefficients first, so a bad parameterization fails before any trial
    grid_plans = [[_plan(tag, k, n) for tag in cfg.estimators] for n in cfg.n_grid]
    rows: list[RiskRow] = []
    for ni, (n, plans) in enumerate(zip(cfg.n_grid, grid_plans)):
        acc = {tag: [0.0, 0.0, 0.0] for tag in cfg.estimators}  # sum_hat, sum_sq, sum_tilde
        for t in range(cfg.trials):
            rng = RngStream(cfg.master_seed, (ni << 32) | t)
            fp = _draw_fingerprint(urn, cfg.model, n, rng)
            for tag, params, coeffs in plans:
                if tag == "naive":
                    c_hat, c_tilde = fp.c_seen, float(fp.c_seen)
                else:
                    res = estimate(fp, coeffs, k, params)
                    c_hat, c_tilde = res.c_hat, res.c_tilde
                a = acc[tag]
                a[0] += c_hat
                a[1] += (c_hat - c_true) ** 2
                a[2] += c_tilde
        for tag, params, coeffs in plans:
            s_hat, s_sq, s_tilde = acc[tag]
            rmse = math.sqrt(s_sq / cfg.trials)
            bias_exact = exact_bias(urn, coeffs, n) if cfg.model == "poissonized" else None
            rows.append(RiskRow(
                n=n, estimator=tag,
                mean_c_hat=s_hat / cfg.trials,
                rmse=rmse,
                bias_empirical=s_tilde / cfg.trials - c_true,
                bias_exact=bias_exact,
                normalized_rmse=rmse / k,
                trials=cfg.trials,
            ))
    return rows


def correlation_experiment(
    urn: UrnSpec, n: int, trials: int, j_max: int, seed: int
) -> list[CorrelationRow]:
    """Empirical correlation between the unseen count and each fingerprint.

    Poisson model; the simulator knows the urn, so the unseen count per trial
    is C - c_seen.  The reported bound min(1, k 2^(-j/2)) is informational
    only: its vanishing-term factor is unquantified.
    """
    if trials < 30:
        raise ValueError("correlation estimates need at least 30 trials")
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    series: list[list[float]] = [[] for _ in range(j_max + 1)]
    for t in range(trials):
        fp = fingerprint_from_count_values(poissonized_color_counts(urn, n, RngStream(seed, t)))
        series[0].append(float(urn.C - fp.c_seen))
        for j in range(1, j_max + 1):
            series[j].append(float(fp.phi.get(j, 0)))
    rows = []
    for j in range(1, j_max + 1):
        rows.append(CorrelationRow(
            j=j,
            corr=_pearson(series[0], series[j]),
            bound=min(1.0, urn.k * 2.0 ** (-j / 2.0)),
        ))
    return rows


def _pearson(xs: list[float], ys: list[float]) -> float | None:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        dx, dy = x - mx, y - my
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def hard_pair_experiment(
    k: int, delta: int, n_grid, trials: int, seed: int, model: str = "multinomial"
) -> list[HardPairRow]:
    """Failure rate |c_hat - C| >= delta of the auto estimator on a hard pair,
    under the given sampling model (default: with replacement)."""
    if trials < 1:
        raise ValueError("trials: must be >= 1")
    _check_model_size(model, n_grid, k)
    pair = make_hard_pair(k, delta, seed)
    rows = []
    for ni, n in enumerate(sorted(n_grid)):
        params = select_params(k, n)
        coeffs = build_estimator(params)
        for ui, (label, urn) in enumerate((("null", pair.null_urn), ("alt", pair.alt_urn))):
            fails = 0
            total_hat = 0.0
            for t in range(trials):
                rng = RngStream(seed, ((ni * 2 + ui) << 32) | t)
                fp = _draw_fingerprint(urn, model, n, rng)
                res = estimate(fp, coeffs, k, params)
                total_hat += res.c_hat
                if abs(res.c_hat - urn.C) >= delta:
                    fails += 1
            rows.append(HardPairRow(
                n=n, urn=label, c_true=urn.C,
                fail_fraction=fails / trials,
                mean_c_hat=total_hat / trials,
            ))
    return rows


# -- serialization ------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    """Versioned CSV: '# schema=N' line, then a header row, then data rows."""
    if not rows:
        return f"# schema={CSV_SCHEMA}\n"
    names = [f.name for f in fields(rows[0])]
    lines = [f"# schema={CSV_SCHEMA}", ",".join(names)]
    for row in rows:
        d = asdict(row)
        lines.append(",".join(_cell(d[name]) for name in names))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(
        {"schema": CSV_SCHEMA, "rows": [asdict(r) for r in rows]},
        indent=2, sort_keys=True,
    ) + "\n"


def load_experiment_config(source: str | dict) -> ExperimentConfig:
    """Parse the experiment JSON.

    Keys: urn {file | uniform{k,C} | hard_pair{k,delta}}, model, n_grid,
    trials, seed, estimators, outputs.
    """
    obj = json.loads(source) if isinstance(source, str) else source
    if "urn" not in obj:
        raise ValueError("urn: missing")
    urn_obj = obj["urn"]
    if "file" in urn_obj:
        urn_source = ("file", str(urn_obj["file"]))
    elif "uniform" in urn_obj:
        u = urn_obj["uniform"]
        urn_source = ("uniform", int(u["k"]), int(u["C"]))
    elif "hard_pair" in urn_obj:
        h = urn_obj["hard_pair"]
        urn_source = ("hard_pair", int(h["k"]), int(h["delta"]))
    else:
        raise ValueError("urn: expected one of file / uniform / hard_pair")
    # hard pairs were defined under with-replacement sampling
    default_model = "multinomial" if urn_source[0] == "hard_pair" else "poissonized"
    model_raw = obj.get("model", default_model)
    if model_raw not in MODEL_ALIASES:
        raise ValueError(f"model: unknown tag {model_raw!r}")
    return ExperimentConfig(
        urn_source=urn_source,
        model=MODEL_ALIASES[model_raw],
        n_grid=tuple(int(n) for n in obj.get("n_grid", ())),
        trials=int(obj.get("trials", 0)),
        master_seed=int(obj.get("seed", 0)),
        estimators=tuple(obj.get("estimators", ("auto",))),
        outputs=tuple(obj.get("outputs", ("csv", "json"))),
    )


def run_experiment_files(cfg: ExperimentConfig, out_dir) -> list[Path]:
    """Run the configured experiment and write its tables into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.urn_source[0] == "hard_pair":
        _, k, delta = cfg.urn_source
        rows = hard_pair_experiment(k, delta, cfg.n_grid, cfg.trials, cfg.master_seed, cfg.model)
        stem = "hard_pair"
    else:
        rows = run_risk_curve(cfg)
        stem = "risk_curve"
    written = []
    if "csv" in cfg.outputs:
        path = out / f"{stem}.csv"
        path.write_text(rows_to_csv(rows))
        written.append(path)
    if "json" in cfg.outputs:
        path = out / f"{stem}.json"
        path.write_text(rows_to_json(rows))
        written.append(path)
    return written
