"""Layer spans for the traced run, installed from outside the program.

Each hook replaces a function at the name its caller looks up (a module
attribute such as ``urncount.harness.draw_bernoulli``, or an entry of
``urncount.verify.SUITES``) with a wrapper that times the call.  Spans nest:
a span's self time is its duration minus the time of the spans it encloses,
so the self times of all spans add up to the time of the outermost spans.
Nothing under ``src/`` is modified; ``uninstall`` puts every original back.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# (module, attribute the caller looks up, span name)
HOOKS = (
    ("harness", "run_risk_curve", "harness.run_risk_curve"),
    ("harness", "draw_with_replacement", "sampling.multinomial"),
    ("harness", "draw_without_replacement", "sampling.hypergeometric"),
    ("harness", "draw_bernoulli", "sampling.bernoulli"),
    ("harness", "poissonized_color_counts", "sampling.poissonized"),
    ("harness", "histogram", "fingerprint"),
    ("harness", "fingerprint", "fingerprint"),
    ("harness", "select_params", "estimator.select_params"),
    ("harness", "build_estimator", "estimator.build_estimator"),
    ("harness", "estimate", "estimator.estimate"),
    ("harness", "exact_bias", "estimator.exact_bias"),
    ("cli", "main", "cli.main"),
    ("cli", "fingerprint_from_count_values", "fingerprint"),
    ("cli", "parse_fingerprint", "fingerprint"),
    ("cli", "select_params", "estimator.select_params"),
    ("cli", "build_estimator", "estimator.build_estimator"),
    ("cli", "estimate", "estimator.estimate"),
    # verify.estimator_report imports these two from the module at call time
    ("estimator", "build_estimator", "estimator.build_estimator"),
    ("estimator", "exact_bias", "estimator.exact_bias"),
    ("estimator", "solve_l2", "orthopoly.solve_l2"),
    ("estimator", "interp_coeffs", "stirling.interp_coeffs"),
    ("verify", "select_params", "estimator.select_params"),
    ("verify", "solve_l2", "orthopoly.solve_l2"),
    ("verify", "interp_coeffs", "stirling.interp_coeffs"),
    ("verify", "sigma_min", "vandermonde.sigma_min"),
    ("verify", "tm_modulus_check", "vandermonde.tm_modulus_check"),
)
VERIFY_SUITES = ("orthopoly", "stirling", "spectral", "estimator")
SAMPLING_SPANS = frozenset(name for _, _, name in HOOKS if name.startswith("sampling."))


def _count_draws(tracer: "Tracer", args, result) -> None:
    size = getattr(result, "realized_size", None)  # a SampleBatch; else a count array
    tracer.counts["sampling.draws"] += int(size if size is not None else result.sum())


def _classify_build(tracer: "Tracer", args, result) -> str:
    """Cold or warm by coefficient-cache key, counted here rather than by the program."""
    p = args[0]
    key = (p.k, p.n, p.L, p.M, p.regime)
    kind = "warm" if key in tracer.built_keys else "cold"
    tracer.built_keys.add(key)
    return kind


class Tracer:
    """In-memory span totals: calls, busy (inclusive) and self seconds per name."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.kinds: dict[str, list] = {}  # "name.kind" -> [calls, busy_s]; not spans
        self.counts: Counter = Counter()
        self.built_keys: set = set()  # survives reset: the program's cache does too
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list = []

    def reset(self) -> None:
        self.stats.clear()
        self.kinds.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        counted = name in SAMPLING_SPANS
        classified = name == "estimator.build_estimator"

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - child[0]
            if counted:
                _count_draws(self, args, result)
            if classified:
                k = self.kinds.setdefault(f"{name}.{_classify_build(self, args, result)}", [0, 0.0])
                k[0] += 1
                k[1] += dur
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every hook found; record the ones that no longer exist by name."""
        for mod_name, attr, span in HOOKS:
            mod = modules[mod_name]
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"urncount.{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.wrap(span, orig))
            self._undo.append((mod.__dict__, attr, orig))
        suites = getattr(modules["verify"], "SUITES", {})
        for name in VERIFY_SUITES:
            if name not in suites:
                self.missing.append(f"urncount.verify.SUITES[{name!r}]")
                continue
            orig = suites[name]
            suites[name] = self.wrap(f"verify.{name}", orig)
            self._undo.append((suites, name, orig))

    def uninstall(self) -> None:
        for table, key, orig in reversed(self._undo):
            table[key] = orig
        self._undo.clear()

    # -- readouts -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def busy(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_self(self) -> float:
        return sum(s[2] for s in self.stats.values())

    def kind(self, name: str) -> tuple[int, float]:
        calls, busy = self.kinds.get(name, (0, 0.0))
        return calls, busy
