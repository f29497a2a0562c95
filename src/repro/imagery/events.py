"""Terrestrial change process: when and where the ground truly changes.

The paper's core empirical premise (§3, Figure 4) is that terrestrial content
changes *slowly and heterogeneously*: about 15 % of 64x64 tiles change within
10 days of a reference, rising to roughly 45 % at 50 days — a concave curve,
not the exponential saturation a homogeneous per-tile rate would give.  That
concavity comes from rate heterogeneity: farm fields churn weekly while rock
faces are static for years.

We reproduce it with a doubly-stochastic (Cox) process: every tile draws a
change *rate* from a Gamma distribution, then changes at the jump times of a
Poisson process with that rate.  Marginalizing the Gamma gives

    P(tile changed within age d) = 1 - (1 + scale * d) ** (-shape)

which with ``shape = 0.5``, ``scale = 0.04``/day passes through ~15 % at 10
days and ~42 % at 50 days, matching Figure 4's shape.  The per-band
``change_rate_scale`` multiplier (see :mod:`repro.imagery.bands`) and the
per-location activity multiplier scale the same process.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.imagery.noise import stable_hash

#: Default Gamma-shape of the per-tile change-rate distribution.
DEFAULT_RATE_SHAPE = 0.5
#: Default Gamma-scale (per day) of the per-tile change-rate distribution.
DEFAULT_RATE_SCALE = 0.04


def expected_changed_fraction(
    age_days: float,
    shape: float = DEFAULT_RATE_SHAPE,
    scale: float = DEFAULT_RATE_SCALE,
) -> float:
    """Closed-form expected fraction of tiles changed within ``age_days``.

    This is the marginal of the Gamma-Poisson change process and the curve
    the Figure 4 bench compares against.

    Args:
        age_days: Age of the reference image in days (>= 0).
        shape: Gamma shape of the tile-rate distribution.
        scale: Gamma scale of the tile-rate distribution, per day.

    Returns:
        Expected changed fraction in ``[0, 1)``.
    """
    if age_days < 0:
        raise ValueError(f"age_days must be >= 0, got {age_days}")
    return 1.0 - (1.0 + scale * age_days) ** (-shape)


@dataclass(frozen=True)
class ChangeEventProcess:
    """Poisson change process for a single tile with a fixed rate.

    The jump times are a pure function of the seed, so any two observers of
    the same tile agree on its entire history.

    Attributes:
        rate_per_day: Poisson intensity of content changes.
        seed: Deterministic seed for the jump-time stream.
    """

    rate_per_day: float
    seed: int

    def event_count(self, t_days: float) -> int:
        """Number of change events in ``[0, t_days]``.

        Uses inverse-CDF sampling of exponential gaps from a seeded stream,
        so ``event_count`` is monotone in ``t_days`` and reproducible.
        """
        if t_days < 0:
            raise ValueError(f"t_days must be >= 0, got {t_days}")
        if self.rate_per_day <= 0.0:
            return 0
        rng = np.random.default_rng(self.seed)
        elapsed = 0.0
        count = 0
        # Draw gaps in blocks to limit Python-level looping.
        while True:
            gaps = rng.exponential(1.0 / self.rate_per_day, size=16)
            for gap in gaps:
                elapsed += gap
                if elapsed > t_days:
                    return count
                count += 1
            if count > 100_000:  # pathological rate guard
                return count


class TileChangeModel:
    """Per-tile change history for a full location/band grid.

    The model vectorizes the Gamma-Poisson construction: each tile's rate is
    drawn once (deterministically from the location seed), and each tile
    changes at the jump times of its own seeded Poisson stream, exactly
    those of a :class:`ChangeEventProcess` with the tile's rate and seed.
    The key query is :meth:`version_grid`: an integer per tile that
    increments every time the tile's content changes.  Two times with
    equal versions show identical ground truth for that tile; differing
    versions mean the tile genuinely changed in between.

    Args:
        tiles_shape: Grid shape ``(tiles_y, tiles_x)``.
        seed: Location/band seed.
        rate_shape: Gamma shape for the tile-rate distribution.
        rate_scale: Gamma scale (per day) for the tile-rate distribution.
        rate_multiplier: Extra multiplier (band volatility x location
            activity).
    """

    #: Jump times drawn per tile at most (the pathological-rate guard of
    #: :meth:`ChangeEventProcess.event_count`: 6251 blocks of 16 gaps).
    _MAX_JUMPS = 100_016

    def __init__(
        self,
        tiles_shape: tuple[int, int],
        seed: int,
        rate_shape: float = DEFAULT_RATE_SHAPE,
        rate_scale: float = DEFAULT_RATE_SCALE,
        rate_multiplier: float = 1.0,
    ) -> None:
        if rate_shape <= 0 or rate_scale <= 0:
            raise ValueError("rate_shape and rate_scale must be positive")
        if rate_multiplier < 0:
            raise ValueError("rate_multiplier must be >= 0")
        self.tiles_shape = tiles_shape
        self.seed = seed
        rng = np.random.default_rng(stable_hash(seed, "tile-rates"))
        self.rates = (
            rng.gamma(rate_shape, rate_scale, size=tiles_shape) * rate_multiplier
        )
        # Independent seed per tile for its jump-time stream.
        self._tile_seeds = np.random.default_rng(
            stable_hash(seed, "tile-seeds")
        ).integers(0, 2**62, size=tiles_shape)
        # Warm state: each queried tile's gap stream and the jump times
        # drawn from it so far (a pure function of the tile).
        self._jumps: dict[
            tuple[int, int], tuple[np.random.Generator, list[float]]
        ] = {}

    def __getstate__(self):
        """Pickle without the jump-time memo (worker tasks start cold)."""
        state = dict(self.__dict__)
        state["_jumps"] = {}
        return state

    def version_grid(self, t_days: float) -> np.ndarray:
        """Integer content-version of every tile at time ``t_days``.

        Args:
            t_days: Query time in days since the model epoch (>= 0).

        Returns:
            int64 array of shape ``tiles_shape``; version 0 means "original
            content", and each change event increments the version.
        """
        if t_days < 0:
            raise ValueError(f"t_days must be >= 0, got {t_days}")
        versions = np.zeros(self.tiles_shape, dtype=np.int64)
        if t_days == 0:
            return versions
        # Counts at two different times must be consistent samples of one
        # path, so a vectorized Poisson draw is not usable: a tile's count
        # at time t is the number of its seeded jump times up to t.  Only
        # tiles whose rate makes >=1 event plausible are queried (cheap
        # skip for the large static fraction).
        plausible = self.rates * t_days > 1e-9
        for y, x in zip(*np.nonzero(plausible)):
            versions[y, x] = self._events_by(int(y), int(x), t_days)
        return versions

    def _events_by(self, y: int, x: int, t_days: float) -> int:
        """Tile ``(y, x)``'s change events in ``[0, t_days]``.

        Draws the tile's gaps in blocks of 16 from its seeded stream and
        sums them sequentially, as :meth:`ChangeEventProcess.event_count`
        does, but keeps the jump times: a later query only draws past the
        last one, and any query is then a bisection.
        """
        jumps = self._jumps.get((y, x))
        if jumps is None:
            rng = np.random.default_rng(int(self._tile_seeds[y, x]))
            jumps = self._jumps[(y, x)] = (rng, [])
        rng, times = jumps
        elapsed = times[-1] if times else 0.0
        if elapsed <= t_days:
            scale = 1.0 / float(self.rates[y, x])
            while elapsed <= t_days and len(times) < self._MAX_JUMPS:
                for gap in rng.exponential(scale, size=16).tolist():
                    elapsed += gap
                    times.append(elapsed)
        return bisect.bisect_right(times, t_days)

    def changed_between(self, t0_days: float, t1_days: float) -> np.ndarray:
        """Boolean grid: which tiles changed in the interval ``(t0, t1]``.

        Args:
            t0_days: Earlier time (the reference capture time).
            t1_days: Later time (the new capture time).

        Returns:
            Boolean array of shape ``tiles_shape``.
        """
        if t1_days < t0_days:
            raise ValueError(
                f"t1_days ({t1_days}) must be >= t0_days ({t0_days})"
            )
        return self.version_grid(t1_days) != self.version_grid(t0_days)

    def changed_fraction(self, t0_days: float, t1_days: float) -> float:
        """Fraction of tiles changed in ``(t0, t1]`` (Figure 4's y-axis)."""
        return float(self.changed_between(t0_days, t1_days).mean())
