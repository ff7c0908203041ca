"""Seeded randomness helpers.

All stochastic behaviour in the library (synthetic data, Zipfian draws,
Poisson delays, workload arrival times) flows through a
:class:`random.Random` instance that is always constructed from an
explicit seed, so every experiment is reproducible bit-for-bit.

The helpers here add the two distributions the paper relies on:

* Zipfian draws over a finite universe (scores, join keys, keyword
  popularity; Section 7, "Synthetic workload"), and
* Poisson-distributed network delays (Section 7, "Delays": an average of
  2 milliseconds per stream tuple and per remote probe).
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")


def make_rng(seed: int, *streams: object) -> random.Random:
    """Return a ``random.Random`` derived from ``seed`` and a stream label.

    Distinct ``streams`` labels give statistically independent generators
    for the same master seed, so e.g. data generation and arrival times
    do not perturb one another when one of them draws more values.

    The label is folded in with a *stable* hash (blake2s), never the
    built-in ``hash()``: that one is salted per process, which would
    silently make every "seeded" experiment unreproducible across runs.
    """
    import hashlib

    payload = repr((seed,) + tuple(streams)).encode()
    digest = hashlib.blake2s(payload, digest_size=6).digest()
    return random.Random(int.from_bytes(digest, "big"))


class ZipfSampler:
    """Draw integers in ``[0, n)`` with Zipfian (power-law) frequencies.

    Rank ``r`` (0-based) has unnormalised weight ``1 / (r + 1) ** theta``.
    The default ``theta`` of 1.0 matches the classic Zipf distribution
    the paper uses for scores, join keys, and keyword choice.

    The inverse-CDF table is precomputed, so each draw is a binary
    search: O(log n).
    """

    def __init__(self, n: int, theta: float = 1.0, rng: random.Random | None = None):
        if n <= 0:
            raise ValueError(f"ZipfSampler needs a positive universe, got n={n}")
        if theta < 0:
            raise ValueError(f"theta must be non-negative, got {theta}")
        self.n = n
        self.theta = theta
        self._rng = rng if rng is not None else random.Random(0)
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        total = sum(weights)
        self._cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        # Guard against floating point drift at the top end.
        self._cdf[-1] = 1.0

    def sample(self) -> int:
        """Return one rank drawn from the Zipf distribution."""
        u = self._rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def choice(self, items: Sequence[T]) -> T:
        """Draw an element of ``items`` Zipf-weighted by its position."""
        if len(items) != self.n:
            raise ValueError(
                f"ZipfSampler built for n={self.n} cannot choose from "
                f"{len(items)} items"
            )
        return items[self.sample()]


def poisson_delay(rng: random.Random, mean: float) -> float:
    """Draw one delay from an exponential distribution with mean ``mean``.

    The paper's "Poisson-distributed delays with an average of 2 ms"
    describes a Poisson arrival process; per-event gaps in such a process
    are exponentially distributed, which is what we sample here.  A mean
    of zero disables delays entirely.
    """
    if mean < 0:
        raise ValueError(f"delay mean must be non-negative, got {mean}")
    if mean == 0:
        return 0.0
    u = rng.random()
    # Avoid log(0); clamp to a tiny positive probability.
    u = max(u, 1e-12)
    return -mean * math.log(u)


def zipf_scores(rng: random.Random, count: int, distinct: int = 1000,
                theta: float = 1.0) -> list[float]:
    """Return ``count`` scores in (0, 1], Zipfian over ``distinct`` levels.

    High scores are rare: rank 0 maps to score 1.0 and lower ranks decay
    linearly, while rank *frequencies* follow the Zipf law, giving the
    heavy-tailed score columns the synthetic workload calls for.
    """
    sampler = ZipfSampler(distinct, theta=theta, rng=rng)
    out = []
    for _ in range(count):
        rank = sampler.sample()
        out.append(1.0 - rank / distinct)
    return out
