import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import urncount
from urncount import estimator, orthopoly
from urncount.cli import _sample_ids, build_parser, main
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

    def test_simulate_requires_n(self, tmp_path, urn_file, capsys):
        # every model is sized by --n, and --p is no simulate option
        base = ["simulate", "--urn", str(urn_file), "--model", "bern",
                "--seed", "9", "--out", str(tmp_path / "x.txt")]
        for size, said in (([], "the following arguments are required: --n"),
                           (["--n", "15", "--p", "0.3"], "unrecognized arguments: --p 0.3")):
            with pytest.raises(SystemExit) as exc:
                main([*base, *size])
            assert exc.value.code == 2
            assert said in capsys.readouterr().err

    @pytest.mark.parametrize("alias, model", [
        ("multi", "multinomial"), ("hyper", "hypergeometric"), ("poi", "poissonized")])
    def test_other_models_require_n(self, tmp_path, urn_file, capsys, alias, model):
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--urn", str(urn_file), "--model", alias,
                  "--seed", "9", "--out", str(out)])
        assert exc.value.code == 2
        assert "the following arguments are required: --n" in capsys.readouterr().err
        assert not out.exists()

    def test_poissonized(self, tmp_path, urn_file):
        out = tmp_path / "p.txt"
        rc = main(["simulate", "--urn", str(urn_file), "--model", "poi",
                   "--n", "40", "--seed", "1", "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("alias, n, message", [
        ("bern", 51, "sample size: the bernoulli model needs 0 <= n <= k, got n = 51, k = 50"),
        ("poi", 10**400, "expected sample size n must lie in the float range, "
                         "got an int of 1329 bits"),
    ], ids=["bern-past-k", "poi-past-float-range"])
    def test_size_the_model_cannot_draw_is_refused(self, tmp_path, urn_file, capsys,
                                                   alias, n, message):
        out = tmp_path / "x.txt"
        rc = main(["simulate", "--urn", str(urn_file), "--model", alias, "--n", str(n),
                   "--seed", "9", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"urncount simulate: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("urn, alias, size, printed, sha256", [
        ("three", "multi", ["--n", "12"], "wrote 12 draws (multinomial)",
         "7a9136635becc3e89ba1b8be3df78d4b87b9eee1cdc742fe7d372b8a9cc8ef79"),
        ("three", "hyper", ["--n", "5"], "wrote 5 draws (hypergeometric)",
         "639104070f064dccc392ffb66d3fe5e9ee7165b176b6d34e61ff0e5406c3ad81"),
        ("three", "bern", ["--n", "3"], "wrote 3 draws (bernoulli)",
         "ea1a31bbf9b2129187b6fa94ab22fa249bab60fbcba0080f6e5a2a0968d0c0aa"),
        ("three", "poi", ["--n", "9"], "wrote 6 draws (poissonized)",
         "5cec4b72e3e4e2faae076e70613a4810eb853ddc643d210b5e1cb9e1223285e8"),
        ("uniform", "multi", ["--n", "5000"], "wrote 5000 draws (multinomial)",
         "5020c73bcc1821a4ee98bdba7d772e200bb58c67e59a48a5542f13e6f012b0af"),
        ("uniform", "hyper", ["--n", "7000"], "wrote 7000 draws (hypergeometric)",
         "dd86465a6e843eeb9546bb9f2036b3af2b826ecf4161e2f964a9b7f25c2657b2"),
        ("uniform", "bern", ["--n", "3000"], "wrote 2951 draws (bernoulli)",
         "efbd210db8eef6fe4d0e0e0c54abb4c3c1320234b6507795da45586acfab03cd"),
        ("uniform", "poi", ["--n", "12000"], "wrote 12078 draws (poissonized)",
         "42ebee2a986347030b54070266912d95530495fcf890afd8a4ebb841daaa70b0"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, capsys, urn, alias, size, printed, sha256):
        # frozen outputs: the draws file and the summary line at a fixed seed and stream
        path = tmp_path / "urn.txt"
        path.write_text("3 2\n1 1\n9 4\n" if urn == "three"
                        else serialize_urn(make_uniform_support(10_000, 6_000)) + "\n")
        out = tmp_path / "draws.txt"
        rc = main(["simulate", "--urn", str(path), "--model", alias, *size,
                   "--seed", "5", "--stream", "2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == f"{printed} to {out}\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


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

    def test_numpy_parses_sample_lines_as_int_does(self):
        texts = ["+5", "1_000", " 7 ", "-0", "007", "\u0661\u0662"]
        assert np.array(texts, dtype=np.int64).tolist() == [int(t) for t in texts]
        for bad in ("1 2", "1.0", "0x10", "1__0", "+ 5"):
            with pytest.raises(ValueError):
                np.array([bad], dtype=np.int64)
        with pytest.raises(OverflowError):
            np.array([str(2**63)], dtype=np.int64)

    @pytest.mark.parametrize("text", [
        "+5\n1_000\n 7 \n5\n",
        f"5\n{2**64 - 1}\n-3\n5\n{-2**63 - 1}\n",
        "\n\n5\n  \n\t6\r\n5",
    ])
    def test_samples_fast_path_matches_exact_parse(self, tmp_path, capsys, text):
        # a '#' line sends the file down the exact per-line int() path
        outs = []
        for body in (text, "# exact path\n" + text):
            path = tmp_path / "s.txt"
            path.write_text(body)
            assert main(["estimate", "--k", "10", "--n", "5", "--samples", str(path),
                         "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_samples_non_integer_line_raises(self, tmp_path):
        # the command raises; main turns that into one stderr line (below)
        for text, lineno in (("5\nabc\n", 2), ("5\n  #abc\nabc\n", 3)):
            samples = tmp_path / "s.txt"
            samples.write_text(text)
            args = build_parser().parse_args(
                ["estimate", "--k", "10", "--n", "2", "--samples", str(samples)])
            with pytest.raises(ValueError, match=f"^line {lineno}: invalid literal for int"):
                args.func(args)

    def test_samples_indented_comment_is_skipped(self, tmp_path, capsys):
        # the same rule as urn and fingerprint files: a line is stripped, then tested for '#'
        outs = []
        for text in ("5\n  # indented note\n7\n\t#x\n", "5\n7\n"):
            samples = tmp_path / "s.txt"
            samples.write_text(text)
            assert main(["estimate", "--k", "10", "--n", "2", "--samples", str(samples),
                         "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["c_seen"] == 2

    def test_samples_crlf_file_parses(self, tmp_path, capsys):
        outs = []
        for body in (b"5\r\n7\r\n5\r\n", b"5\n7\n5\n"):
            path = tmp_path / "s.txt"
            path.write_bytes(body)
            assert main(["estimate", "--k", "10", "--n", "3", "--samples", str(path),
                         "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["c_seen"] == 2

    def test_samples_non_ascii_lines(self, tmp_path, capsys):
        # non-ASCII digits are decoded and read by int(), as any other line
        path = tmp_path / "s.txt"
        path.write_bytes("5\r\n\u0661\u0662\n12\n".encode())
        assert main(["estimate", "--k", "10", "--n", "3", "--samples", str(path),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["c_seen"] == 2
        path.write_bytes("5\r\n7\r\n\u00e9\r\n".encode())
        assert main(["estimate", "--k", "10", "--n", "3", "--samples", str(path)]) == 2
        assert capsys.readouterr().err == ("urncount estimate: error: line 3: invalid literal "
                                           "for int() with base 10: '\u00e9'\n")

    @pytest.mark.parametrize("flag, text, message", [
        ("--fingerprint", "1 10\n", "c_seen = 10 colors were seen, more than k = 5 balls"),
        ("--fingerprint", "1 x\n", "line 1: non-integer field in '1 x'"),
        ("--samples", "5\nabc\n", "invalid literal for int()"),
        ("--samples", "5\n\n# note\nabc\n", "line 4: invalid literal for int() with base 10: 'abc'"),
        ("--samples", "5\n1 2\n", "line 2: invalid literal for int() with base 10: '1 2'"),
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

    @pytest.mark.parametrize("k, regime", [(10**6, "l2"), (2500, "interpolation")])
    def test_request_path_forms_no_fraction(self, tmp_path, capsys, monkeypatch, k, regime):
        # a cold coefficient build, the estimate and its digest, on integers only
        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was formed on the estimate path")

        fp = tmp_path / "fp.txt"
        fp.write_text("1 1000\n2 1000\n")  # n = 3000
        estimator.build_estimator.cache_clear()
        for module in (estimator, orthopoly):
            monkeypatch.setattr(module, "Fraction", refuse, raising=False)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        rc = main(["estimate", "--k", str(k), "--n", "3000", "--fingerprint", str(fp), "--json"])
        monkeypatch.undo()
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["regime"] == regime

    def test_size_past_float_range_is_refused(self, tmp_path, capsys):
        # 10**400 balls put M = 2 k ln k / n past the float range; 10**30 does not
        fp = tmp_path / "fp.txt"
        fp.write_text("1 4\n")
        assert main(["estimate", "--k", str(10**30), "--n", "5", "--fingerprint", str(fp)]) == 0
        capsys.readouterr()
        rc = main(["estimate", "--k", str(10**400), "--n", "5", "--fingerprint", str(fp)])
        assert rc == 2
        assert capsys.readouterr().err == ("urncount estimate: error: k of 1329 bits with n of "
                                           "3 bits puts L or M past the float range\n")

    @pytest.mark.parametrize("flag, value", [("--alpha", "0.3"), ("--beta", "3"), ("--eta", "2")])
    def test_selection_constants_are_not_flags(self, tmp_path, capsys, flag, value):
        fp = tmp_path / "fp.txt"
        fp.write_text("1 4\n")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--k", "100", "--n", "50", flag, value, "--fingerprint", str(fp)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestParserReuse:
    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        # one parser serves every call: a flag given once must not reach the next call
        fp = tmp_path / "fp.txt"
        fp.write_text("1 40\n2 12\n3 4\n")
        samples = tmp_path / "s.txt"
        samples.write_text("".join(f"{i % 23}\n" for i in range(60)))
        base = ["estimate", "--k", "1000", "--n", "72"]
        argvs = {
            "json": [*base, "--json", "--fingerprint", str(fp)],
            "plain": [*base, "--fingerprint", str(fp)],
            "samples": [*base, "--json", "--samples", str(samples)],
            "stirling": ["verify", "--stirling"],
        }
        env = {**os.environ, "PYTHONPATH": str(Path(urncount.__file__).parents[1])}
        fresh = {name: subprocess.run([sys.executable, "-m", "urncount.cli", *argv], env=env,
                                      capture_output=True, text=True, check=True).stdout
                 for name, argv in argvs.items()}
        assert fresh["json"] != fresh["plain"]
        for name in ["json", "plain", "samples", "stirling", "plain", "json", "stirling",
                     "samples", "plain"]:
            assert main(argvs[name]) == 0
            assert capsys.readouterr().out == fresh[name], name
        assert build_parser() is build_parser()


def _int_per_line(text):
    """The exact samples parse: int() on each stripped, non-blank, non-'#' line."""
    draws = [int(line.strip()) for line in text.splitlines()
             if line.strip() and not line.strip().startswith("#")]
    try:
        return np.array(draws, dtype=np.int64)
    except OverflowError:
        return np.array(draws, dtype=object)


class TestSampleIds:
    @pytest.mark.parametrize("text, fast", [
        ("", False),
        ("\n", False),  # np.fromstring gives [0] for these two
        ("\n\n", False),
        ("\n5\n6\n", False),
        ("5\n\n6\n", False),
        ("5\n6\n\n", False),
        ("5\n6", True),
        ("5\n6\n", True),
        ("007\n0000000000000000005\n", True),
        (f"{2**63 - 2}\n", False),  # at or past the 10**18 bound
        (f"{2**63 - 1}\n", False),
        (f"{2**63}\n", False),  # np.fromstring saturates these two to 2**63 - 1
        (f"5\n{2**64 + 5}\n", False),
        (f"{10**18 - 1}\n", True),
        ("1\r\n2", False),
        ("+5\n", False),
        ("-3\n", False),
        (" 7 \n", False),
        ("\u0661\n", False),
        ("5\n# note\n6\n", False),
    ])
    def test_fast_tier_matches_exact_parse(self, monkeypatch, text, fast):
        parsed = []

        def fromstring(*args, **kwargs):
            parsed.append(real(*args, **kwargs))
            return parsed[-1]

        real = np.fromstring
        monkeypatch.setattr(np, "fromstring", fromstring)
        ids = _sample_ids(text.encode())
        want = _int_per_line(text)
        assert ids.dtype == want.dtype
        assert ids.tolist() == want.tolist()
        assert any(ids is p for p in parsed) == fast

    @pytest.mark.parametrize("fake", [
        # an empty field read as 0: only the blank-line guard stops it
        lambda data, **kw: np.array([int(f or 0) for f in data.split(b"\n")], dtype=np.int64),
        # a parse that stops one value early: only the count check stops it
        lambda data, **kw: np.array([int(f) for f in data.split()[:-1]], dtype=np.int64),
    ])
    def test_guard_holds_if_fromstring_changes(self, monkeypatch, fake):
        monkeypatch.setattr(np, "fromstring", fake)
        for text in ("5\n\n6", "5\n6", "5\n6\n7"):
            assert _sample_ids(text.encode()).tolist() == _int_per_line(text).tolist()

    def test_numpy_fromstring_edges_the_fast_tier_guards(self):
        # whitespace-only text parses as [0], not []; an id past int64 saturates
        for text in (b"\n", b"\n\n", b" \n"):
            assert np.fromstring(text, dtype=np.int64, sep="\n").tolist() == [0]
        for big in (2**63, 2**64 + 5, 10**30):
            parsed = np.fromstring(f"{big}\n".encode(), dtype=np.int64, sep="\n")
            assert parsed.tolist() == [2**63 - 1]
        parsed = np.fromstring(b"007\n0000000000000000005\n12", dtype=np.int64, sep="\n")
        assert parsed.tolist() == [7, 5, 12]


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


    def test_unknown_config_key_is_one_line_and_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"urn": {"uniform": {"k": 40, "C": 20}}, "modle": "multi",
                                   "n_grid": [10], "trials": 2}))
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "urncount experiment: error: config: unknown key 'modle'\n"


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

        brackets = verify.sigma_min_brackets
        monkeypatch.setattr(verify, "sigma_min_brackets", lambda M, top: (
            (*row[:4], False) for row in brackets(M, top)))
        rc = main(["verify", "--spectral"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "exact certificate [FAIL]" in out and "VERIFY FAIL" in out

    def test_spectral_suite_fails_on_one_bound_past_the_trace_certificate(self, capsys,
                                                                            monkeypatch):
        import urncount.vandermonde as vd

        # one bound just above sigma_min, or just below it but past the
        # reach of 1/sqrt(trace): the trace cannot certify it
        sigma = vd.sigma_min(vd.build_matrix(64, 8) / 8)
        bound = vd.sigma_min_bound
        for scale in (1 + 1e-6, 1 - 1e-6):
            monkeypatch.setattr(vd, "sigma_min_bound", lambda M, L: (
                sigma * scale if (M, L) == (64, 8) else bound(M, L)))
            rc = main(["verify", "--spectral"])
            out = capsys.readouterr().out
            assert rc == 1, scale
            assert "exact certificate [FAIL]" in out and "VERIFY FAIL" in out

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_spectral_suite_fails_on_sigma_min_outside_the_bracket(self, capsys, monkeypatch,
                                                                   value):
        import urncount.verify as verify

        monkeypatch.setattr(verify, "sigma_min", lambda matrix: value)
        rc = main(["verify", "--spectral"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "bracket contains LAPACK sigma_min at M=64, L<=12 [FAIL]" in out
        assert "exact certificate [ok]" in out and "VERIFY FAIL" in out

    def test_spectral_suite_fails_on_modulus_violation(self, capsys, monkeypatch):
        import urncount.vandermonde as vd

        monkeypatch.setattr(vd, "tm_bound_at", lambda M, m, z: 1e-12)
        rc = main(["verify", "--spectral"])
        out = capsys.readouterr().out
        assert rc == 1
        assert any(line.startswith("t_m modulus bound") and line.endswith("[FAIL]")
                   for line in out.splitlines())
        assert "VERIFY FAIL" in out

    def test_estimator_suite(self, capsys):
        rc = main(["verify", "--estimator"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "zero bias" in out
