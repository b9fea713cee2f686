"""Command-line interface: simulate, estimate, experiment, verify."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .estimator import build_estimator, estimate, select_params
from .fingerprint import fingerprint_from_count_values, parse_fingerprint
from .harness import load_experiment_config, run_experiment_files
from .rng import RngStream
from .sampling import MODEL_ALIASES, sample_draws
from .urn import parse_urn
from .verify import SUITES


def _cmd_simulate(args) -> int:
    urn = parse_urn(Path(args.urn).read_text())
    model = MODEL_ALIASES[args.model]
    draws = sample_draws(urn, model, args.n, RngStream(args.seed, args.stream))
    text = "\n".join(map(str, draws))
    Path(args.out).write_text(text + "\n" if text else "")
    print(f"wrote {len(draws)} draws ({model}) to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    params = select_params(args.k, args.n)
    coeffs = build_estimator(params)
    if args.samples:
        ids = np.sort(_sample_ids(Path(args.samples).read_bytes()))
        # a run of equal ids starts at 0 and wherever the sorted id changes
        starts = np.ones(ids.size + 1, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=starts[1:-1])
        fp = fingerprint_from_count_values(np.diff(np.flatnonzero(starts)))
    else:
        fp = parse_fingerprint(Path(args.fingerprint).read_text())
    result = estimate(fp, coeffs)
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


# np.fromstring saturates an id past int64 to 2**63 - 1 without an error, so
# a plain file holding an id at or above this bound takes the exact path.
_FAST_ID_BOUND = 10**18
_NEWLINE, _ZERO, _NINE = b"\n09"


def _sample_ids(raw: bytes) -> np.ndarray:
    """The color ids of a samples file's bytes, one integer per line; blank
    lines and lines whose first non-blank character is '#' are skipped.

    A file of plain digit lines (each line one or more ASCII digits, no blank
    line, the last newline optional: what ``simulate`` writes) is parsed in
    one C pass by ``np.fromstring``.  A guard first checks the bytes, as one
    uint8 array: every byte is at most '9' and is a digit or a newline, the
    first is a digit, and no two newlines are adjacent (every pair of
    neighbouring bytes sums past 2 * ord('\\n')).  It closes two edges of the
    parse: whitespace-only text parses as [0], not [], so a blank line is
    refused and the parse must yield one value per line (the newline count,
    plus one if the last newline is missing); and an id past int64 saturates
    to 2**63 - 1 without an error, so an id at or above ``_FAST_ID_BOUND``
    sends the file on.  Every other file (CRLF line ends included) is decoded
    as UTF-8 and takes the exact path: ``int()`` on each stripped line, ids
    past int64 kept as Python ints, and the first bad line named by its number.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    if data.size and data[0] >= _ZERO and data.max() <= _NINE:
        lines = np.count_nonzero(data == _NEWLINE)
        if (lines + np.count_nonzero(data >= _ZERO) == data.size
                and (data[1:] + data[:-1]).min(initial=_NINE) > 2 * _NEWLINE):
            ids = np.fromstring(raw, dtype=np.int64, sep="\n")
            if ids.size == lines + (data[-1] != _NEWLINE) and ids.max() < _FAST_ID_BOUND:
                return ids
    draws = []
    for lineno, line in enumerate(raw.decode().splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                draws.append(int(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    try:
        return np.array(draws, dtype=np.int64)
    except OverflowError:  # ids past the int64 range
        return np.array(draws, dtype=object)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``urncount`` parser, built on first use and then reused: parsing
    keeps no state between calls, and each command's ``func`` looks up its
    collaborators at call time."""
    parser = argparse.ArgumentParser(
        prog="urncount",
        description="Estimate the number of distinct colors in a k-ball urn from samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a sample from an urn file")
    sim.add_argument("--urn", required=True, help="urn file: 'color_id count' lines")
    sim.add_argument("--model", required=True, choices=sorted(MODEL_ALIASES))
    sim.add_argument("--n", type=int, required=True,
                     help="sample size: expected for bern (p = n/k) and poi")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--stream", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate distinct colors from samples")
    est.add_argument("--k", type=int, required=True, help="total number of balls in the urn")
    est.add_argument("--n", type=int, required=True, help="nominal sample size")
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
