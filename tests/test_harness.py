import json
import math

import pytest

from urncount import harness
from urncount.estimator import ParameterizationError
from urncount.harness import (
    CSV_SCHEMA,
    ExperimentConfig,
    correlation_experiment,
    hard_pair_experiment,
    load_experiment_config,
    rows_to_csv,
    rows_to_json,
    run_experiment_files,
    run_risk_curve,
)
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

    def test_model_size_limits(self):
        cfg = poisson_cfg(model="hypergeometric", n_grid=(500,))
        with pytest.raises(ValueError, match="n <= k"):
            run_risk_curve(cfg)


class TestPlanFirst:
    def test_interpolation_cap_fails_before_any_trial(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a trial ran before every plan was built")

        monkeypatch.setattr(harness, "poissonized_color_counts", no_sampling)
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


class TestHardPairExperiment:
    def test_invalid_delta_propagates(self):
        with pytest.raises(ValueError):
            hard_pair_experiment(6, 3, [5], 10, seed=0)

    def test_golden_seed0(self):
        rows = hard_pair_experiment(10_000, 100, [1000], 50, seed=0)
        assert [(r.urn, r.c_true) for r in rows] == [("null", 10_000), ("alt", 9_800)]
        # frozen reference-run values: far too few samples, so both fail fully
        assert rows[0].fail_fraction == 1.0
        assert rows[1].fail_fraction == 1.0
        assert rows[0].mean_c_hat == pytest.approx(1781.7)
        assert rows[1].mean_c_hat == pytest.approx(1774.96)

    def test_model_is_honored(self):
        multi = hard_pair_experiment(400, 20, [200], 20, seed=4)
        assert hard_pair_experiment(400, 20, [200], 20, seed=4, model="multinomial") == multi
        poi = hard_pair_experiment(400, 20, [200], 20, seed=4, model="poissonized")
        assert [r.mean_c_hat for r in poi] != [r.mean_c_hat for r in multi]
        with pytest.raises(ValueError, match="n <= k"):
            hard_pair_experiment(400, 20, [500], 5, seed=4, model="hypergeometric")

    def test_fail_fraction_drops_when_easy(self):
        # huge delta makes the tolerance loose: the estimator rarely misses by 400
        rows = hard_pair_experiment(1000, 400, [800], 40, seed=3)
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
            "outputs": ["csv"],
        }))
        written = run_experiment_files(cfg, tmp_path)
        assert [p.name for p in written] == ["hard_pair.csv"]

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
