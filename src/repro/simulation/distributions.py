"""Seeded random streams and the percentile-table sampler.

Every sampler is constructed from a :class:`SeededRandom` (or an explicit
seed), so all simulations in the reproduction are deterministic and
repeatable.  :class:`PiecewiseCDFSampler` draws from distributions specified
directly by the percentile tables the NotebookOS paper reports (e.g. the
AdobeTrace task-duration percentiles in §2.3.1).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence


def stable_seed(name: str) -> int:
    """A 31-bit seed derived from ``name`` through a stable MD5 digest.

    Unlike :func:`hash`, which Python salts per interpreter run, the result
    is the same in every process — use it wherever a seed is derived from a
    string.
    """
    digest = hashlib.md5(name.encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class SeededRandom(random.Random):
    """A :class:`random.Random` with named sub-streams.

    ``substream(name)`` derives an independent, deterministic generator from
    the parent seed, so different components (workload, network, failures)
    never perturb each other's sequences.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._seed_value = seed

    @property
    def seed_value(self) -> int:
        return self._seed_value

    def substream(self, name: str) -> "SeededRandom":
        """Derive an independent generator keyed by ``name``.

        The derivation uses a stable cryptographic digest rather than
        :func:`hash` so that simulations are reproducible across processes
        (Python randomizes string hashing per interpreter run).
        """
        return SeededRandom(stable_seed(f"{self._seed_value}:{name}"))


class PiecewiseCDFSampler:
    """Samples from a distribution specified by (percentile, value) knots.

    The knots are linearly interpolated in log-space of the value axis when
    ``log_interpolation`` is true, which matches the log-scaled CDFs the
    paper publishes.  This is the primary tool for reproducing the AdobeTrace,
    PhillyTrace, and AlibabaTrace distributions from their published
    percentiles.
    """

    def __init__(self, knots: Sequence[tuple[float, float]], rng: SeededRandom,
                 log_interpolation: bool = True) -> None:
        if len(knots) < 2:
            raise ValueError("need at least two (percentile, value) knots")
        ordered = sorted(knots)
        percentiles = [p for p, _ in ordered]
        values = [v for _, v in ordered]
        if percentiles[0] < 0.0 or percentiles[-1] > 1.0:
            raise ValueError("percentiles must lie within [0, 1]")
        if any(b <= a for a, b in zip(percentiles, percentiles[1:])):
            raise ValueError("percentiles must be strictly increasing")
        if any(v <= 0 for v in values) and log_interpolation:
            raise ValueError("log interpolation requires positive values")
        self.percentiles = percentiles
        self.values = values
        self.log_interpolation = log_interpolation
        self._rng = rng

    def quantile(self, q: float) -> float:
        """Inverse CDF evaluated at ``q`` in [0, 1]."""
        q = min(max(q, self.percentiles[0]), self.percentiles[-1])
        for i in range(len(self.percentiles) - 1):
            p_lo, p_hi = self.percentiles[i], self.percentiles[i + 1]
            if p_lo <= q <= p_hi:
                frac = 0.0 if p_hi == p_lo else (q - p_lo) / (p_hi - p_lo)
                v_lo, v_hi = self.values[i], self.values[i + 1]
                if self.log_interpolation:
                    return math.exp(math.log(v_lo) + frac * (math.log(v_hi) - math.log(v_lo)))
                return v_lo + frac * (v_hi - v_lo)
        return self.values[-1]

    def sample(self) -> float:
        return self.quantile(self._rng.random())
