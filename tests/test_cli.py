import json

import pytest

from urncount.cli import build_parser, main
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
        # the command raises; main turns that into one stderr line (below)
        for text in ("5\nabc\n", "5\n  # indented comment\n"):
            samples = tmp_path / "s.txt"
            samples.write_text(text)
            args = build_parser().parse_args(
                ["estimate", "--k", "10", "--n", "2", "--samples", str(samples)])
            with pytest.raises(ValueError, match="^line 2: invalid literal for int"):
                args.func(args)

    @pytest.mark.parametrize("flag, text, message", [
        ("--fingerprint", "1 10\n", "c_seen = 10 colors were seen, more than k = 5 balls"),
        ("--fingerprint", "1 x\n", "line 1: non-integer field in '1 x'"),
        ("--samples", "5\nabc\n", "invalid literal for int()"),
        ("--samples", "5\n\n# note\nabc\n", "line 4: invalid literal for int() with base 10: 'abc'"),
    ])
    def test_input_error_is_one_line_and_exit_2(self, tmp_path, capsys, flag, text, message):
        path = tmp_path / "in.txt"
        path.write_text(text)
        rc = main(["estimate", "--k", "5", "--n", "10", flag, str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("urncount estimate: error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["estimate", "--k", "5", "--n", "10", "--fingerprint", "{missing}"],
        ["estimate", "--k", "5", "--n", "10", "--samples", "{missing}"],
        ["simulate", "--urn", "{missing}", "--model", "multi", "--n", "3", "--seed", "1",
         "--out", "{tmp}/x.txt"],
        ["experiment", "--config", "{missing}", "--out", "{tmp}/out"],
    ])
    def test_missing_file_is_one_line_and_exit_2(self, tmp_path, capsys, argv):
        missing = tmp_path / "no-such-file.txt"
        rc = main([a.format(missing=missing, tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"urncount {argv[0]}: error: ")
        assert str(missing) in captured.err
        assert captured.err.count("\n") == 1

    def test_urn_parse_error_is_one_line(self, tmp_path, capsys):
        urn = tmp_path / "urn.txt"
        urn.write_text("1 2\n1 3\n")
        rc = main(["simulate", "--urn", str(urn), "--model", "multi", "--n", "3",
                   "--seed", "1", "--out", str(tmp_path / "x.txt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "urncount simulate: error: line 2: duplicate color id 1\n"

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
    def test_orthopoly_suite(self, capsys):
        rc = main(["verify", "--orthopoly"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFY PASS" in out
        assert any(line.startswith("orthonormality (M<=64, L<=16)") and line.endswith("[ok]")
                   for line in out.splitlines())

    def test_stirling_suite(self, capsys):
        rc = main(["verify", "--stirling"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFY PASS" in out
        assert "n,m,abs_s_over_nfact,c" in out

    def test_spectral_suite_certifies_to_degree_12(self, capsys):
        rc = main(["verify", "--spectral"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFY PASS" in out
        assert any(line.startswith("13,12,") for line in out.splitlines())
        assert "exact certificate [ok]" in out

    def test_spectral_suite_fails_without_certificate(self, capsys, monkeypatch):
        import urncount.verify as verify

        monkeypatch.setattr(verify, "certify_sigma_min_bound", lambda *args: False)
        rc = main(["verify", "--spectral"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "exact certificate [FAIL]" in out and "VERIFY FAIL" in out

    def test_estimator_suite(self, capsys):
        rc = main(["verify", "--estimator"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "zero bias" in out
