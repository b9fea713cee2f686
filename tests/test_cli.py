import json

import pytest

from urncount.cli import main
from urncount.urn import make_uniform_support, serialize_urn


@pytest.fixture
def urn_file(tmp_path):
    path = tmp_path / "urn.txt"
    path.write_text(serialize_urn(make_uniform_support(50, 20)) + "\n")
    return path


class TestSimulate:
    def test_multinomial_deterministic(self, tmp_path, urn_file, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            rc = main(["simulate", "--urn", str(urn_file), "--model", "multi",
                       "--n", "30", "--seed", "9", "--out", str(out)])
            assert rc == 0
        assert out1.read_text() == out2.read_text()
        assert len(out1.read_text().splitlines()) == 30

    def test_bernoulli_requires_p(self, tmp_path, urn_file):
        with pytest.raises(SystemExit):
            main(["simulate", "--urn", str(urn_file), "--model", "bern",
                  "--n", "30", "--seed", "9", "--out", str(tmp_path / "x.txt")])

    def test_poissonized(self, tmp_path, urn_file):
        out = tmp_path / "p.txt"
        rc = main(["simulate", "--urn", str(urn_file), "--model", "poi",
                   "--n", "40", "--seed", "1", "--out", str(out)])
        assert rc == 0


class TestEstimate:
    def test_from_samples_json(self, tmp_path, urn_file, capsys):
        samples = tmp_path / "s.txt"
        main(["simulate", "--urn", str(urn_file), "--model", "multi",
              "--n", "40", "--seed", "3", "--out", str(samples)])
        capsys.readouterr()
        rc = main(["estimate", "--k", "50", "--n", "40",
                   "--samples", str(samples), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"c_hat", "c_tilde", "c_seen", "regime", "L", "M",
                                "coeffs_digest"}
        assert payload["c_seen"] <= payload["c_hat"] <= 50

    def test_samples_file_line_rules(self, tmp_path, capsys):
        # blank and '#' lines skipped, surrounding spaces allowed, ids past int64 counted
        samples = tmp_path / "s.txt"
        samples.write_text(f"5\n\n# note\n5\n{2**64 - 1}\n 7 \n-3\n")
        fp = tmp_path / "fp.txt"
        fp.write_text("1 3\n2 1\n")
        outs = []
        for flag, path in (("--samples", samples), ("--fingerprint", fp)):
            assert main(["estimate", "--k", "10", "--n", "5", flag, str(path), "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["c_seen"] == 4

    def test_samples_non_integer_line_raises(self, tmp_path):
        for text in ("5\nabc\n", "5\n  # indented comment\n"):
            samples = tmp_path / "s.txt"
            samples.write_text(text)
            with pytest.raises(ValueError):
                main(["estimate", "--k", "10", "--n", "2", "--samples", str(samples)])

    def test_from_fingerprint_text(self, tmp_path, capsys):
        fp = tmp_path / "fp.txt"
        fp.write_text("1 4\n2 3\n")
        rc = main(["estimate", "--k", "100", "--n", "50", "--fingerprint", str(fp)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "c_hat:" in out and "regime:" in out

    def test_override_flags(self, tmp_path, capsys):
        fp = tmp_path / "fp.txt"
        fp.write_text("1 4\n")
        rc = main(["estimate", "--k", "100", "--n", "50", "--beta", "3.0",
                   "--fingerprint", str(fp), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "l2"


class TestExperiment:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "urn": {"uniform": {"k": 40, "C": 20}},
            "model": "poi",
            "n_grid": [10, 20],
            "trials": 15,
            "seed": 2,
            "estimators": ["naive", "auto"],
        }))
        out_dir = tmp_path / "results"
        rc = main(["experiment", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "risk_curve.csv").exists()
        assert (out_dir / "risk_curve.json").exists()
        csv_text = (out_dir / "risk_curve.csv").read_text()
        assert csv_text.startswith("# schema=1\n")


class TestVerify:
    def test_stirling_suite(self, capsys):
        rc = main(["verify", "--stirling"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFY PASS" in out
        assert "n,m,abs_s_over_nfact,c" in out

    def test_estimator_suite(self, capsys):
        rc = main(["verify", "--estimator"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "zero bias" in out
