"""RNG discipline: randomness flows through ``common/rng.py``.

Every experiment, load trace, and synthetic corpus must replay
bit-for-bit from its seed (the answer digests pinned in
``benchmarks/bench_digests.py`` and every hypothesis differential suite
depend on it).  The module-level ``random.*`` functions draw from one
hidden, process-global generator -- any call perturbs every other consumer --
and a ``random.Random()`` constructed without :func:`repro.common.rng.
make_rng` either has no seed at all or couples unrelated streams to one
raw integer.  Outside ``common/rng.py``, generators are *passed in*,
derived via ``make_rng(seed, *stream_labels)``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.framework import LintModule, Rule, Violation, register

#: Module-level functions of :mod:`random` (the hidden global stream).
BANNED_FUNCTIONS = frozenset({
    "random.random", "random.seed", "random.getstate", "random.setstate",
    "random.randint", "random.randrange", "random.getrandbits",
    "random.randbytes", "random.choice", "random.choices",
    "random.shuffle", "random.sample", "random.uniform",
    "random.triangular", "random.betavariate", "random.expovariate",
    "random.gammavariate", "random.gauss", "random.lognormvariate",
    "random.normalvariate", "random.vonmisesvariate",
    "random.paretovariate", "random.weibullvariate",
})

#: Generator classes that must only be constructed in ``common/rng.py``.
BANNED_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})

ALLOWED_SUFFIXES = ("common/rng.py",)


@register
class RngDiscipline(Rule):
    id = "rng-discipline"
    summary = ("no module-level random.* calls and no random.Random() "
               "construction outside common/rng.py")
    contract = ("seeded reproducibility: pinned answer digests "
                "(benchmarks/bench_digests.py) and every "
                "differential suite replay synthetic data and load "
                "traces bit-for-bit from make_rng streams")

    def applies_to(self, module: LintModule) -> bool:
        path = module.path.as_posix()
        return not any(path.endswith(sfx) for sfx in ALLOWED_SUFFIXES)

    def check(self, module: LintModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = module.resolve(node.func)
                if name in BANNED_CONSTRUCTORS:
                    yield module.violation(
                        self.id, node,
                        f"{name}(...) constructed outside common/rng.py "
                        f"-- derive a generator with "
                        f"repro.common.rng.make_rng(seed, *stream_labels) "
                        f"so streams stay independent and replayable")
                continue
            # Bare references to the module-level functions (outside
            # annotations) catch both calls and aliasing.
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if module.in_annotation(node):
                continue
            parent = module.parent(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue
            name = module.resolve(node)
            if name in BANNED_FUNCTIONS:
                yield module.violation(
                    self.id, node,
                    f"{name!r} draws from the hidden process-global "
                    f"generator -- pass an explicit random.Random built "
                    f"by repro.common.rng.make_rng instead")
