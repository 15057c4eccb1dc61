"""Seeded random-variate samplers used by workloads and latency models.

Every sampler is constructed from a :class:`SeededRandom` (or an explicit
seed), so all simulations in the reproduction are deterministic and
repeatable.  The samplers intentionally cover the families needed to match
the workload statistics published in the NotebookOS paper:

* :class:`LogNormalSampler` — heavy-tailed task durations,
* :class:`ExponentialSampler` — memoryless inter-arrival components,
* :class:`BoundedParetoSampler` — long tails with hard caps,
* :class:`PiecewiseCDFSampler` — distributions specified directly from the
  percentile tables the paper reports (e.g. AdobeTrace task-duration
  percentiles in §2.3.1),
* :class:`EmpiricalSampler` — resampling from observed values.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Optional, Sequence


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


class LogNormalSampler:
    """Samples log-normal variates parameterised by median and sigma."""

    def __init__(self, median: float, sigma: float, rng: SeededRandom,
                 minimum: float = 0.0, maximum: Optional[float] = None) -> None:
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = math.log(median)
        self.sigma = sigma
        self.minimum = minimum
        self.maximum = maximum
        self._rng = rng

    def sample(self) -> float:
        value = self._rng.lognormvariate(self.mu, self.sigma)
        value = max(self.minimum, value)
        if self.maximum is not None:
            value = min(self.maximum, value)
        return value


class ExponentialSampler:
    """Samples exponential variates with a given mean."""

    def __init__(self, mean: float, rng: SeededRandom, minimum: float = 0.0) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self.mean = mean
        self.minimum = minimum
        self._rng = rng

    def sample(self) -> float:
        return max(self.minimum, self._rng.expovariate(1.0 / self.mean))


class BoundedParetoSampler:
    """Samples from a Pareto distribution truncated to ``[lower, upper]``."""

    def __init__(self, alpha: float, lower: float, upper: float,
                 rng: SeededRandom) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0 < lower < upper:
            raise ValueError(f"require 0 < lower < upper, got {lower}, {upper}")
        self.alpha = alpha
        self.lower = lower
        self.upper = upper
        self._rng = rng

    def sample(self) -> float:
        alpha, low, high = self.alpha, self.lower, self.upper
        u = self._rng.random()
        ratio = (low / high) ** alpha
        value = low / ((1.0 - u * (1.0 - ratio)) ** (1.0 / alpha))
        return min(high, max(low, value))


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


class EmpiricalSampler:
    """Resamples uniformly from a list of observed values."""

    def __init__(self, values: Sequence[float], rng: SeededRandom) -> None:
        if not values:
            raise ValueError("empirical sampler needs at least one value")
        self.values = list(values)
        self._rng = rng

    def sample(self) -> float:
        return self._rng.choice(self.values)
