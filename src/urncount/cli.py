"""Command-line interface: simulate, estimate, experiment, verify."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .estimator import build_estimator, estimate, select_params
from .fingerprint import fingerprint_from_count_values, parse_fingerprint
from .harness import MODEL_ALIASES, load_experiment_config, run_experiment_files
from .rng import RngStream
from .sampling import (
    SampleBatch,
    draw_bernoulli,
    draw_poissonized,
    draw_with_replacement,
    draw_without_replacement,
)
from .urn import parse_urn
from .verify import SUITES


def _cmd_simulate(args) -> int:
    urn = parse_urn(Path(args.urn).read_text())
    rng = RngStream(args.seed, args.stream)
    model = MODEL_ALIASES[args.model]
    if model == "bernoulli":
        if args.p is None:
            raise SystemExit("simulate: --p is required for the bernoulli model")
        batch = draw_bernoulli(urn, args.p, rng)
    else:
        if args.n is None:
            raise SystemExit(f"simulate: --n is required for the {model} model")
        if model == "multinomial":
            batch = draw_with_replacement(urn, args.n, rng)
        elif model == "hypergeometric":
            batch = draw_without_replacement(urn, args.n, rng)
        else:
            batch = draw_poissonized(urn, args.n, rng)
    _write_batch(batch, args.out)
    print(f"wrote {batch.realized_size} draws ({batch.model_tag}) to {args.out}")
    return 0


def _write_batch(batch: SampleBatch, out: str) -> None:
    text = "\n".join(str(cid) for cid in batch.draws)
    Path(out).write_text(text + "\n" if text else "")


def _cmd_estimate(args) -> int:
    params = select_params(args.k, args.n, alpha=args.alpha, beta=args.beta, eta=args.eta)
    coeffs = build_estimator(params)
    if args.samples:
        lines = Path(args.samples).read_text().splitlines()
        try:
            draws = [
                int(line.strip())
                for line in lines
                if line.strip() and not line.startswith("#")
            ]
        except ValueError:
            raise ValueError(_bad_sample_line(lines)) from None
        try:
            ids = np.array(draws, dtype=np.int64)
        except OverflowError:  # ids past the int64 range
            ids = np.array(draws, dtype=object)
        _, counts = np.unique(ids, return_counts=True)
        fp = fingerprint_from_count_values(counts)
    else:
        fp = parse_fingerprint(Path(args.fingerprint).read_text())
    result = estimate(fp, coeffs, args.k, params)
    payload = {
        "c_hat": result.c_hat,
        "c_tilde": result.c_tilde,
        "c_seen": result.c_seen,
        "regime": params.regime,
        "L": params.L,
        "M": params.M,
        "coeffs_digest": result.coeffs_digest,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _bad_sample_line(lines: list[str]) -> str:
    """The first sample line that is not an integer, named by its number."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip() and not line.startswith("#"):
            try:
                int(line.strip())
            except ValueError as exc:
                return f"line {lineno}: {exc}"
    raise AssertionError("every sample line parses")


def _cmd_experiment(args) -> int:
    cfg = load_experiment_config(Path(args.config).read_text())
    written = run_experiment_files(cfg, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    selected = [name for name in SUITES if getattr(args, name)]
    if not selected:
        selected = list(SUITES)
    all_ok = True
    for name in selected:
        lines, ok = SUITES[name]()
        print(f"== {name} ==")
        for line in lines:
            print(line)
        all_ok = all_ok and ok
    print("VERIFY PASS" if all_ok else "VERIFY FAIL")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urncount",
        description="Estimate the number of distinct colors in a k-ball urn from samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a sample from an urn file")
    sim.add_argument("--urn", required=True, help="urn file: 'color_id count' lines")
    sim.add_argument("--model", required=True, choices=sorted(MODEL_ALIASES))
    sim.add_argument("--n", type=int, default=None, help="(expected) sample size")
    sim.add_argument("--p", type=float, default=None, help="bernoulli inclusion probability")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--stream", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate distinct colors from samples")
    est.add_argument("--k", type=int, required=True, help="total number of balls in the urn")
    est.add_argument("--n", type=int, required=True, help="nominal sample size")
    est.add_argument("--alpha", type=float, default=None)
    est.add_argument("--beta", type=float, default=None)
    est.add_argument("--eta", type=float, default=None)
    src = est.add_mutually_exclusive_group(required=True)
    src.add_argument("--samples", help="file of observed color ids, one per line")
    src.add_argument("--fingerprint", help="file of 'j count' fingerprint lines")
    est.add_argument("--json", action="store_true")
    est.set_defaults(func=_cmd_estimate)

    exp = sub.add_parser("experiment", help="run a configured experiment")
    exp.add_argument("--config", required=True, help="JSON experiment config")
    exp.add_argument("--out", required=True, help="output directory")
    exp.set_defaults(func=_cmd_experiment)

    ver = sub.add_parser("verify", help="run the identity/inequality self-checks")
    for name in SUITES:
        ver.add_argument(f"--{name}", action="store_true", help=f"run only the {name} suite")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; an input error (a ValueError, or an OSError from a
    missing or unreadable file) is one stderr line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"urncount {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
