import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from urncount import sampling
from urncount.estimator import ParameterizationError, build_estimator, estimate, select_params
from urncount.fingerprint import fingerprint_from_count_values
from urncount.harness import (
    CSV_SCHEMA,
    ExperimentConfig,
    hard_pair_experiment,
    load_experiment_config,
    rows_to_csv,
    rows_to_json,
    run_experiment_files,
    run_risk_curve,
)
from urncount.rng import RngStream
from urncount.sampling import multinomial_counts, poissonized_color_counts, sample_counts
from urncount.urn import UrnSpec, make_uniform_support


def poisson_cfg(**overrides):
    base = dict(
        urn_source=("uniform", 200, 200),
        model="poissonized",
        n_grid=(100,),
        trials=3000,
        master_seed=77,
        estimators=("naive",),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_field_names_in_errors(self):
        with pytest.raises(ValueError, match="trials"):
            poisson_cfg(trials=0)
        with pytest.raises(ValueError, match="n_grid"):
            poisson_cfg(n_grid=())
        with pytest.raises(ValueError, match="n_grid"):
            poisson_cfg(n_grid=(5, 5))
        with pytest.raises(ValueError, match="estimators"):
            poisson_cfg(estimators=("bogus",))
        with pytest.raises(ValueError, match="model"):
            poisson_cfg(model="weird")

    # as in the JSON loader: a bool would run n = 1
    @pytest.mark.parametrize("n", [True, np.True_, 2.0, 0])
    def test_grid_entries_are_ints(self, n):
        message = f"n_grid must be an int >= 1, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            poisson_cfg(n_grid=(n,))

    @pytest.mark.parametrize("field, value, message", [
        # trials=True ran one trial and wrote True into every row; a float
        # seed failed inside RngStream only after every plan was built
        ("trials", True, "trials must be an int >= 1, got True"),
        ("trials", 2.0, "trials must be an int >= 1, got 2.0"),
        ("master_seed", 1.5, "seed must be an int, got 1.5"),
        ("master_seed", np.int64(3), "seed must be an int, got np.int64(3)"),
    ], ids=["trials-bool", "trials-float", "seed-float", "seed-numpy"])
    def test_trials_and_seed_are_ints(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            poisson_cfg(**{field: value})

    def test_repeated_estimator_tag_is_refused(self):
        # run_risk_curve sums per tag, so a repeated tag counted each trial twice
        with pytest.raises(ValueError, match=r"^estimators: duplicate tag 'naive'$"):
            poisson_cfg(estimators=("naive", "auto", "naive"))
        config = {"urn": {"uniform": {"k": 1000, "C": 500}}, "n_grid": [500], "trials": 20,
                  "seed": 3, "estimators": ["naive", "auto", "naive"]}
        with pytest.raises(ValueError, match=r"^estimators: duplicate tag 'naive'$"):
            load_experiment_config(json.dumps(config))

    def test_model_size_limits(self):
        cfg = poisson_cfg(model="hypergeometric", n_grid=(500,))
        with pytest.raises(ValueError, match="n <= k"):
            run_risk_curve(cfg)


class TestPlanFirst:
    def test_interpolation_cap_fails_before_any_trial(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a trial ran before every plan was built")

        # sample_counts looks the core up in sampling at call time
        monkeypatch.setattr(sampling, "poissonized_color_counts", no_sampling)
        cfg = poisson_cfg(urn_source=("uniform", 100_000, 50_000), n_grid=(1000, 20_000),
                          trials=1, estimators=("naive", "interpolation"))
        with pytest.raises(ParameterizationError,
                           match=r"'interpolation' at k=100000, n=1000: .*128-node cap"):
            run_risk_curve(cfg)


class TestRiskCurve:
    def test_naive_mean_matches_poisson_theory(self):
        # per-color inclusion probability 1 - e^{-n/k}
        cfg = poisson_cfg()
        rows = run_risk_curve(cfg)
        k, n = 200, 100
        expect = k * (1 - math.exp(-n / k))
        std = math.sqrt(k * math.exp(-n / k) * (1 - math.exp(-n / k)))
        row = rows[0]
        assert row.estimator == "naive"
        assert abs(row.mean_c_hat - expect) <= 4 * std / math.sqrt(cfg.trials)
        assert row.bias_exact == pytest.approx(expect - k, rel=1e-12)

    def test_single_trial_rmse(self):
        cfg = poisson_cfg(trials=1, estimators=("auto",))
        row = run_risk_curve(cfg)[0]
        assert row.rmse == pytest.approx(abs(row.mean_c_hat - 200))
        assert row.normalized_rmse == pytest.approx(row.rmse / 200)

    def test_bias_exact_vs_empirical(self):
        cfg = poisson_cfg(trials=10_000, estimators=("naive", "auto"))
        rows = run_risk_curve(cfg)
        k = 200
        for row in rows:
            # unclamped mean converges to the oracle; 4 sigma MC band
            std_cap = math.sqrt(k)  # crude but valid upper bound on the std
            assert abs(row.bias_empirical - row.bias_exact) <= 4 * std_cap / math.sqrt(row.trials)
            assert row.rmse ** 2 >= row.bias_empirical ** 2 - 1e-6 * k * k

    def test_all_estimator_tags_run(self):
        cfg = poisson_cfg(trials=20, n_grid=(100, 250),
                          estimators=("naive", "l2", "interpolation", "auto"))
        rows = run_risk_curve(cfg)
        assert len(rows) == 8
        assert {r.estimator for r in rows} == {"naive", "l2", "interpolation", "auto"}

    def test_deterministic_bytes(self):
        cfg = poisson_cfg(trials=50, estimators=("naive", "auto"))
        a = rows_to_csv(run_risk_curve(cfg))
        b = rows_to_csv(run_risk_curve(cfg))
        assert a == b

    def test_multinomial_model_runs(self):
        cfg = poisson_cfg(model="multinomial", trials=30, estimators=("auto",))
        rows = run_risk_curve(cfg)
        assert rows[0].bias_exact is None

    @pytest.mark.parametrize("model, counts", [("poissonized", poissonized_color_counts),
                                               ("multinomial", multinomial_counts)])
    def test_naive_rows_are_the_seen_counts(self, model, counts):
        # pinned against the counts themselves, over the harness's own streams
        urn, trials, seed = make_uniform_support(300, 120), 40, 13
        cfg = poisson_cfg(urn_source=("uniform", 300, 120), model=model, n_grid=(50, 200),
                          trials=trials, master_seed=seed, estimators=("naive", "l2"))
        rows = [row for row in run_risk_curve(cfg) if row.estimator == "naive"]
        for ni, (n, row) in enumerate(zip(cfg.n_grid, rows)):
            seen = [int(np.count_nonzero(counts(urn, n, RngStream(seed, (ni << 32) | t))))
                    for t in range(trials)]
            assert row.mean_c_hat == sum(seen) / trials
            assert row.rmse == math.sqrt(sum((c - 120) ** 2 for c in seen) / trials)
            assert row.bias_empirical == sum(map(float, seen)) / trials - 120

    def test_empty_samples_count_as_zero(self):
        # at n = 1 about a third of Poisson samples are empty: every tag then
        # records the estimator's value at phi = 0, which is 0
        urn, trials = make_uniform_support(100, 50), 20
        cfg = poisson_cfg(urn_source=("uniform", 100, 50), n_grid=(1,), trials=trials,
                          master_seed=3, estimators=("naive", "auto"))
        fps = [fingerprint_from_count_values(poissonized_color_counts(urn, 1, RngStream(3, t)))
               for t in range(trials)]
        assert any(fp.c_seen == 0 for fp in fps)
        coeffs = build_estimator(select_params(100, 1))
        hats = {"naive": [fp.c_seen for fp in fps],
                "auto": [estimate(fp, coeffs).c_hat if fp.c_seen else 0 for fp in fps]}
        rows = run_risk_curve(cfg)
        assert [row.estimator for row in rows] == ["naive", "auto"]
        for row in rows:
            assert row.mean_c_hat == sum(hats[row.estimator]) / trials

@dataclass(frozen=True)
class CorrelationRow:
    j: int
    corr: float | None
    bound: float


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
        fp = fingerprint_from_count_values(sample_counts(urn, "poissonized", n, RngStream(seed, t)))
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


class TestCorrelationExperiment:
    def test_single_color_urn_degenerate(self):
        urn = UrnSpec(((1, 1),))
        rows = correlation_experiment(urn, 20, 100, 3, seed=0)
        assert all(row.corr is None for row in rows)  # unseen count is constant 0

    def test_never_positive_fingerprint_is_null(self):
        urn = make_uniform_support(50, 50)
        rows = correlation_experiment(urn, 50, 60, 40, seed=1)
        assert rows[-1].j == 40
        assert rows[-1].corr is None  # phi_40 never positive at lambda = 1

    def test_bound_column(self):
        urn = make_uniform_support(100, 100)
        rows = correlation_experiment(urn, 100, 50, 5, seed=2)
        for row in rows:
            assert row.bound == pytest.approx(min(1.0, 100 * 2 ** (-row.j / 2)))

    def test_too_few_trials(self):
        with pytest.raises(ValueError, match="30"):
            correlation_experiment(make_uniform_support(10, 10), 5, 29, 3, seed=0)

    def test_nearby_fingerprints_more_correlated(self):
        urn = make_uniform_support(200, 200)
        vals = {}
        for seed in range(3):
            rows = {r.j: r.corr for r in correlation_experiment(urn, 200, 1500, 4, seed)}
            for j in (1, 4):
                vals.setdefault(j, []).append(abs(rows[j]))
        assert sum(vals[1]) / 3 > sum(vals[4]) / 3


def hard_pair_cfg(k, delta, n_grid, trials, seed, model):
    return ExperimentConfig(urn_source=("hard_pair", k, delta), model=model,
                            n_grid=tuple(n_grid), trials=trials, master_seed=seed,
                            estimators=("auto",))


class TestHardPairExperiment:
    def test_invalid_delta_propagates(self):
        with pytest.raises(ValueError):
            hard_pair_experiment(hard_pair_cfg(6, 3, [5], 10, seed=0, model="multinomial"))

    def test_other_sources_are_refused(self):
        with pytest.raises(ValueError, match="^urn: expected a hard_pair source"):
            hard_pair_experiment(poisson_cfg(estimators=("auto",)))

    def test_golden_seed0(self):
        rows = hard_pair_experiment(hard_pair_cfg(10_000, 100, [1000], 50, seed=0,
                                                  model="multinomial"))
        assert [(r.urn, r.c_true) for r in rows] == [("null", 10_000), ("alt", 9_800)]
        # frozen reference-run values: far too few samples, so both fail fully
        assert rows[0].fail_fraction == 1.0
        assert rows[1].fail_fraction == 1.0
        assert rows[0].mean_c_hat == pytest.approx(1781.7)
        assert rows[1].mean_c_hat == pytest.approx(1774.96)

    def test_model_is_honored(self):
        multi = hard_pair_experiment(hard_pair_cfg(400, 20, [200], 20, seed=4, model="multinomial"))
        poi = hard_pair_experiment(hard_pair_cfg(400, 20, [200], 20, seed=4, model="poissonized"))
        assert [r.mean_c_hat for r in poi] != [r.mean_c_hat for r in multi]
        with pytest.raises(ValueError, match="n <= k"):
            hard_pair_experiment(hard_pair_cfg(400, 20, [500], 5, seed=4, model="hypergeometric"))

    def test_empty_samples_count_as_zero(self):
        rows = hard_pair_experiment(hard_pair_cfg(10, 2, [1], 20, 0, model="poissonized"))
        assert [(r.urn, r.c_true) for r in rows] == [("null", 10), ("alt", 6)]
        assert all(0 <= r.mean_c_hat <= 10 for r in rows)

    def test_fail_fraction_drops_when_easy(self):
        # huge delta makes the tolerance loose: the estimator rarely misses by 400
        rows = hard_pair_experiment(hard_pair_cfg(1000, 400, [800], 40, seed=3,
                                                  model="multinomial"))
        null_row = next(r for r in rows if r.urn == "null")
        assert null_row.fail_fraction <= 0.2


class TestSerialization:
    def test_csv_schema_and_shape(self):
        cfg = poisson_cfg(trials=5, estimators=("naive",))
        rows = run_risk_curve(cfg)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == f"# schema={CSV_SCHEMA}"
        assert lines[1].split(",") == [
            "n", "estimator", "mean_c_hat", "rmse", "bias_empirical",
            "bias_exact", "normalized_rmse", "trials",
        ]
        assert len(lines) == 2 + len(rows)

    def test_json_mirrors_rows(self):
        cfg = poisson_cfg(trials=5, estimators=("naive",))
        rows = run_risk_curve(cfg)
        payload = json.loads(rows_to_json(rows))
        assert payload["schema"] == CSV_SCHEMA
        assert payload["rows"][0]["estimator"] == "naive"
        assert len(payload["rows"]) == len(rows)

    def test_config_parsing_and_files(self, tmp_path):
        cfg_obj = {
            "urn": {"uniform": {"k": 60, "C": 30}},
            "model": "poi",
            "n_grid": [20, 40],
            "trials": 25,
            "seed": 5,
            "estimators": ["naive", "auto"],
        }
        cfg = load_experiment_config(json.dumps(cfg_obj))
        assert cfg.model == "poissonized"
        written = run_experiment_files(cfg, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["risk_curve.csv", "risk_curve.json"]
        text1 = (tmp_path / "out" / "risk_curve.csv").read_text()
        run_experiment_files(cfg, tmp_path / "out2")
        assert (tmp_path / "out2" / "risk_curve.csv").read_text() == text1

    def test_hard_pair_config_dispatch(self, tmp_path):
        cfg = load_experiment_config(json.dumps({
            "urn": {"hard_pair": {"k": 100, "delta": 10}},
            "model": "multi",
            "n_grid": [50],
            "trials": 10,
            "seed": 1,
        }))
        written = run_experiment_files(cfg, tmp_path / "out")
        assert [p.name for p in written] == ["hard_pair.csv", "hard_pair.json"]
        run_experiment_files(cfg, tmp_path / "out2")
        for name in ("hard_pair.csv", "hard_pair.json"):
            assert (tmp_path / "out2" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def test_hard_pair_config_model_reaches_sampler(self, tmp_path):
        obj = {"urn": {"hard_pair": {"k": 100, "delta": 10}}, "n_grid": [150],
               "trials": 5, "seed": 1}
        assert load_experiment_config(json.dumps(obj)).model == "multinomial"
        cfg = load_experiment_config(json.dumps({**obj, "model": "bern"}))
        with pytest.raises(ValueError, match="n <= k"):
            run_experiment_files(cfg, tmp_path)

    def test_hard_pair_config_rejects_other_estimators(self):
        obj = {"urn": {"hard_pair": {"k": 100, "delta": 10}}, "n_grid": [50],
               "trials": 5, "seed": 1, "estimators": ["naive", "auto"]}
        with pytest.raises(ValueError, match="estimators"):
            load_experiment_config(json.dumps(obj))

    def test_config_missing_urn(self):
        with pytest.raises(ValueError, match="urn"):
            load_experiment_config("{}")

    @pytest.mark.parametrize("key", ["urn", "n_grid", "trials"])
    def test_config_required_keys(self, key):
        obj = {"urn": {"uniform": {"k": 100, "C": 50}}, "n_grid": [50], "trials": 5}
        del obj[key]
        with pytest.raises(ValueError, match=rf"^config: missing key '{key}'$"):
            load_experiment_config(json.dumps(obj))

    @pytest.mark.parametrize("change, message", [
        ({"modle": "multi"}, r"^config: unknown key 'modle'$"),
        ({"estimator": ["l2"]}, r"^config: unknown key 'estimator'$"),
        ({"urn": {}}, r"^urn: expected one of file / uniform / hard_pair, got \[\]$"),
        ({"urn": {"uniform": {"k": 100, "C": 50}, "file": "urn.txt"}},
         r"^urn: expected one of file / uniform / hard_pair, got \['file', 'uniform'\]$"),
        ({"urn": {"unifrom": {"k": 100, "C": 50}}}, r"^urn: unknown key 'unifrom'$"),
        ({"urn": {"uniform": {"k": 100}}}, r"^urn.uniform: missing key 'C'$"),
        ({"urn": {"uniform": {"k": 100, "C": 50, "c": 5}}}, r"^urn.uniform: unknown key 'c'$"),
        ({"urn": {"hard_pair": {"k": 100}}}, r"^urn.hard_pair: missing key 'delta'$"),
        ({"urn": {"hard_pair": {"k": 100, "delta": 10, "seed": 1}}},
         r"^urn.hard_pair: unknown key 'seed'$"),
        ({"urn": {"uniform": [100, 50]}}, r"^urn.uniform: expected an object, got \[100, 50\]$"),
        # wrong JSON value types name their key instead of being coerced
        ({"n_grid": "125"}, r"^n_grid: expected a list, got '125'$"),
        ({"n_grid": [50.0]}, r"^n_grid: expected an integer, got 50.0$"),
        ({"n_grid": [True]}, r"^n_grid: expected an integer, got True$"),
        ({"trials": 2.9}, r"^trials: expected an integer, got 2.9$"),
        ({"trials": True}, r"^trials: expected an integer, got True$"),
        ({"seed": 1.5}, r"^seed: expected an integer, got 1.5$"),
        ({"model": ["poi"]}, r"^model: expected a string, got \['poi'\]$"),
        ({"estimators": "auto"}, r"^estimators: expected a list, got 'auto'$"),
        ({"estimators": [1]}, r"^estimators: expected a string, got 1$"),
        ({"outputs": ["csv"]}, r"^config: unknown key 'outputs'$"),
        ({"urn": {"file": 5}}, r"^urn.file: expected a string, got 5$"),
        ({"urn": {"uniform": {"k": 100.0, "C": 50}}}, r"^urn.uniform.k: expected an integer"),
        ({"urn": {"uniform": {"k": 100, "C": "50"}}}, r"^urn.uniform.C: expected an integer"),
        ({"urn": {"hard_pair": {"k": True, "delta": 10}}},
         r"^urn.hard_pair.k: expected an integer, got True$"),
        ({"urn": {"hard_pair": {"k": 100, "delta": 1e1}}},
         r"^urn.hard_pair.delta: expected an integer, got 10.0$"),
        # an empty list would draw every sample and write a header-only table
        ({"estimators": []}, r"^estimators: must be nonempty$"),
    ])
    def test_config_keys_fail_loudly(self, change, message):
        base = {"urn": {"uniform": {"k": 100, "C": 50}}, "n_grid": [50], "trials": 5}
        with pytest.raises(ValueError, match=message):
            load_experiment_config(json.dumps({**base, **change}))
