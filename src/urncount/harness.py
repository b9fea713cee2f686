"""Reproducible experiments: risk curves and hard pairs.

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
from .fingerprint import fingerprint_from_count_values
from .rng import RngStream, check_int
from .sampling import MODEL_ALIASES, sample_counts
from .urn import UrnSpec, make_hard_pair, make_uniform_support, parse_urn

CSV_SCHEMA = 1

ESTIMATOR_TAGS = ("naive", "l2", "interpolation", "auto")


@dataclass(frozen=True)
class ExperimentConfig:
    urn_source: tuple  # ("file", path) | ("uniform", k, C) | ("hard_pair", k, delta)
    model: str
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int
    estimators: tuple[str, ...]

    def __post_init__(self):
        if self.model not in MODEL_ALIASES.values():
            raise ValueError(f"model: unknown tag {self.model!r}")
        if not self.n_grid:
            raise ValueError("n_grid: must be nonempty")
        for n in self.n_grid:
            check_int(n, "n_grid", 1)
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid: must be strictly increasing")
        check_int(self.trials, "trials", 1)
        check_int(self.master_seed, "seed")
        if not self.estimators:
            raise ValueError("estimators: must be nonempty")
        for i, tag in enumerate(self.estimators):
            if tag not in ESTIMATOR_TAGS:
                raise ValueError(f"estimators: unknown tag {tag!r}")
            if tag in self.estimators[:i]:  # its trials would be summed twice
                raise ValueError(f"estimators: duplicate tag {tag!r}")
        if self.urn_source[0] == "hard_pair" and tuple(self.estimators) != ("auto",):
            raise ValueError(
                f"estimators: hard_pair experiments run only 'auto', got {list(self.estimators)}")


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


def _plan(tag: str, k: int, n: int) -> tuple:
    """(tag, coeffs) for one estimator tag."""
    if tag == "naive":
        return tag, naive_coefficients(k, n)
    params = select_params(k, n, regime=None if tag == "auto" else tag)
    try:
        return tag, build_estimator(params)
    except ParameterizationError as exc:
        raise ParameterizationError(f"estimators: tag {tag!r} at k={k}, n={n}: {exc}") from None


def _trial(urn: UrnSpec, model: str, n: int, rng: RngStream, plans) -> list[tuple[int, float]]:
    """One sample, estimated by every plan: (c_hat, c_tilde) per plan.

    The sample is the model's per-color counts, fingerprinted by one
    bincount.  An empty sample gives (0, 0.0), the estimator's value at
    phi = 0, for every plan; ``estimate`` itself rejects empty fingerprints.
    """
    fp = fingerprint_from_count_values(sample_counts(urn, model, n, rng))
    if fp.c_seen == 0:
        return [(0, 0.0)] * len(plans)
    results = (estimate(fp, coeffs) for _, coeffs in plans)
    return [(res.c_hat, res.c_tilde) for res in results]


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
            for (tag, _), (c_hat, c_tilde) in zip(plans, _trial(urn, cfg.model, n, rng, plans)):
                a = acc[tag]
                a[0] += c_hat
                a[1] += (c_hat - c_true) ** 2
                a[2] += c_tilde
        for tag, coeffs in plans:
            s_hat, s_sq, s_tilde = acc[tag]
            rmse = math.sqrt(s_sq / cfg.trials)
            bias_exact = exact_bias(urn, coeffs) if cfg.model == "poissonized" else None
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


def hard_pair_experiment(cfg: ExperimentConfig) -> list[HardPairRow]:
    """Failure rate |c_hat - C| >= delta of the auto estimator on the hard
    pair ``make_hard_pair(k, delta, cfg.master_seed)``, under ``cfg.model``."""
    if cfg.urn_source[0] != "hard_pair":
        raise ValueError(f"urn: expected a hard_pair source, got {cfg.urn_source!r}")
    _, k, delta = cfg.urn_source
    _check_model_size(cfg.model, cfg.n_grid, k)
    pair = make_hard_pair(k, delta, cfg.master_seed)
    rows = []
    for ni, n in enumerate(cfg.n_grid):
        plans = [_plan("auto", k, n)]
        for ui, (label, urn) in enumerate((("null", pair.null_urn), ("alt", pair.alt_urn))):
            fails = 0
            total_hat = 0.0
            for t in range(cfg.trials):
                rng = RngStream(cfg.master_seed, ((ni * 2 + ui) << 32) | t)
                [(c_hat, _)] = _trial(urn, cfg.model, n, rng, plans)
                total_hat += c_hat
                if abs(c_hat - urn.C) >= delta:
                    fails += 1
            rows.append(HardPairRow(
                n=n, urn=label, c_true=urn.C,
                fail_fraction=fails / cfg.trials,
                mean_c_hat=total_hat / cfg.trials,
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


def _fields(obj, where: str, required: tuple = (), optional: tuple = ()) -> dict:
    """``obj`` as a JSON object holding every required key and no key outside
    required + optional; a ValueError names the key that breaks this."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {obj!r}")
    for key in obj:
        if key not in required + optional:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
    return obj


_KINDS = {int: "an integer", str: "a string", list: "a list"}


def _typed(value, kind: type, key: str):
    """``value`` if it is a JSON ``kind`` (a bool is no integer); otherwise a
    ValueError that names ``key``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key}: expected {_KINDS[kind]}, got {value!r}")
    return value


def _typed_list(value, kind: type, key: str) -> tuple:
    return tuple(_typed(item, kind, key) for item in _typed(value, list, key))


def load_experiment_config(source: str) -> ExperimentConfig:
    """Parse the experiment JSON text.

    Keys: urn {file | uniform{k,C} | hard_pair{k,delta}}, n_grid, trials
    (all three required), model, seed, estimators.  A missing or unknown
    key, an urn with other than exactly one source, or a value of the wrong
    JSON type is an error that names the key.
    """
    obj = _fields(json.loads(source), "config", ("urn", "n_grid", "trials"),
                  ("model", "seed", "estimators"))
    urn_obj = _fields(obj["urn"], "urn", (), ("file", "uniform", "hard_pair"))
    if len(urn_obj) != 1:
        raise ValueError(f"urn: expected one of file / uniform / hard_pair, got {sorted(urn_obj)}")
    if "file" in urn_obj:
        urn_source = ("file", _typed(urn_obj["file"], str, "urn.file"))
    elif "uniform" in urn_obj:
        u = _fields(urn_obj["uniform"], "urn.uniform", ("k", "C"))
        urn_source = ("uniform", _typed(u["k"], int, "urn.uniform.k"),
                      _typed(u["C"], int, "urn.uniform.C"))
    else:
        h = _fields(urn_obj["hard_pair"], "urn.hard_pair", ("k", "delta"))
        urn_source = ("hard_pair", _typed(h["k"], int, "urn.hard_pair.k"),
                      _typed(h["delta"], int, "urn.hard_pair.delta"))
    # hard pairs were defined under with-replacement sampling
    default_model = "multinomial" if urn_source[0] == "hard_pair" else "poissonized"
    model_raw = _typed(obj.get("model", default_model), str, "model")
    if model_raw not in MODEL_ALIASES:
        raise ValueError(f"model: unknown tag {model_raw!r}")
    return ExperimentConfig(
        urn_source=urn_source,
        model=MODEL_ALIASES[model_raw],
        n_grid=_typed_list(obj["n_grid"], int, "n_grid"),
        trials=_typed(obj["trials"], int, "trials"),
        master_seed=_typed(obj.get("seed", 0), int, "seed"),
        estimators=_typed_list(obj.get("estimators", ["auto"]), str, "estimators"),
    )


def run_experiment_files(cfg: ExperimentConfig, out_dir) -> list[Path]:
    """Run the configured experiment and write both tables into out_dir:
    hard_pair.csv and .json for a hard_pair urn, else risk_curve.csv and .json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.urn_source[0] == "hard_pair":
        stem, rows = "hard_pair", hard_pair_experiment(cfg)
    else:
        stem, rows = "risk_curve", run_risk_curve(cfg)
    csv_path, json_path = out / f"{stem}.csv", out / f"{stem}.json"
    csv_path.write_text(rows_to_csv(rows))
    json_path.write_text(rows_to_json(rows))
    return [csv_path, json_path]
