"""Determinism rules: RL001 no-wallclock, RL002 seeded-rng.

The paper's trade-off curves (Figs. 7-13) are reproduced by replaying
identical event streams; any wall-clock read or global-RNG draw on the
simulation path makes two runs with the same seed diverge. These two
rules make that class of bug un-mergeable instead of un-debuggable.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.base import Checker, register
from repro.lint.context import SIM_PATH_PACKAGES, LintModule
from repro.lint.finding import Finding
from repro.lint.resolve import ImportMap, resolve_call_target

#: Callables that read the host clock. ``perf_counter`` is included on
#: purpose: even "just measuring" on the sim path invites feeding host
#: time into simulated state.
WALLCLOCK_TARGETS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The module-level convenience API of :mod:`random` — every call draws
#: from (or reseeds) the hidden global generator. ``random.Random`` /
#: ``random.SystemRandom`` construction is deliberately absent: an
#: injected seeded instance is the sanctioned pattern.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: numpy's legacy global-state RNG surface (``np.random.<fn>``).
NUMPY_GLOBAL_FUNCS = frozenset(
    {
        "choice",
        "exponential",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "uniform",
    }
)


@register
class WallClockChecker(Checker):
    """RL001: no wall-clock reads in simulation-path packages.

    Simulated time is ``Simulator.now`` and nothing else. Host-time
    measurement belongs in the orchestration/telemetry layers (which
    this rule does not scan); the rare legitimate sim-path use — e.g.
    reporting host elapsed time alongside results — carries an inline
    pragma stating why.
    """

    rule_id = "RL001"
    name = "no-wallclock"
    severity = "error"
    packages = SIM_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target in WALLCLOCK_TARGETS:
                self.emit(
                    out,
                    module,
                    node,
                    f"wall-clock read `{target}()` on the simulation path",
                    hint="use Simulator.now (simulated ns); host-time "
                    "measurement belongs in telemetry/fabric, or "
                    "justify with `# repro-lint: disable=RL001`",
                )
        return out


@register
class SeededRngChecker(Checker):
    """RL002: randomness must come from an injected seeded generator.

    The module-level ``random.*`` / ``numpy.random.*`` APIs share hidden
    global state: import order, test order, or a library reseeding it
    changes every downstream draw. Components instead accept a seed and
    own a ``random.Random`` instance (see workloads/cpu/cache for the
    pattern).
    """

    rule_id = "RL002"
    name = "seeded-rng"
    severity = "error"
    packages = None  # global RNG state is poison everywhere

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target is None:
                continue
            if (
                target.startswith("random.")
                and target.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS
            ):
                self.emit(
                    out,
                    module,
                    node,
                    f"module-level `{target}()` draws from the global RNG",
                    hint="thread a seeded `random.Random(seed)` instance "
                    "through the constructor instead",
                )
            elif target.startswith("numpy.random."):
                func = target.rsplit(".", 1)[1]
                if func in NUMPY_GLOBAL_FUNCS:
                    self.emit(
                        out,
                        module,
                        node,
                        f"global numpy RNG call `{target}()`",
                        hint="use `numpy.random.default_rng(seed)` held by "
                        "the component",
                    )
                elif func == "default_rng" and not node.args and not node.keywords:
                    self.emit(
                        out,
                        module,
                        node,
                        "`numpy.random.default_rng()` without a seed is "
                        "entropy-seeded",
                        hint="pass an explicit seed derived from the run "
                        "configuration",
                    )
        return out
