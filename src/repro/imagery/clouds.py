"""Cloud climatology and per-capture cloud rendering.

Clouds drive two of the paper's key numbers: roughly two thirds of Earth is
cloud-covered at any instant (§3, [10]), which is why the satellite-local
reference age balloons to ~51 days, and why constellation-wide selection
(more chances to catch a clear pass) collapses it to ~4.2 days.

The model has two layers:

* a **coverage process**: per (location, capture time) cloud fraction drawn
  from a mixture calibrated so that clear captures (<1 % cloud) occur with
  probability ``clear_probability`` and the long-run mean coverage is about
  0.6;
* a **mask renderer**: thresholded fractal noise whose threshold is chosen
  by quantile to hit the sampled coverage exactly, giving spatially coherent
  cloud fields rather than pixel noise.

Rendering honours per-band behaviour (:class:`repro.imagery.bands.Band`):
clouds brighten visible bands but read *cold* (dark) in the thermal-proxy
bands, which is the signal the paper's cheap decision-tree detector keys on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imagery.bands import Band
from repro.imagery.noise import fractal_noise, stable_hash


@dataclass(frozen=True)
class CloudSample:
    """Cloud state for one capture.

    Attributes:
        coverage: Fraction of pixels covered, in [0, 1].
        mask: Boolean cloud mask (True = cloudy pixel).
        thickness: Optical-thickness field in [0, 1] (0 outside the mask).
    """

    coverage: float
    mask: np.ndarray
    thickness: np.ndarray

    def alpha(self) -> np.ndarray:
        """Per-pixel blend weight of the cloud top over the surface.

        Even optically-thin cloud raises apparent reflectance noticeably;
        heavy cloud saturates.  The floor keeps thin haze *detectable in
        principle* while still being the hardest case (the paper's cheap
        detector intentionally targets only easy heavy clouds).  The
        weight is zero off the mask (and where thickness is zero), so
        blending every pixel of a surface in [0, 1] leaves clear pixels
        exactly as they were.
        """
        return np.where(
            self.mask & (self.thickness > 0.0),
            np.clip(0.6 + self.thickness, 0.0, 1.0),
            0.0,
        )


def cloud_value(band: Band) -> float:
    """The value a band reads at an opaque cloud top.

    Visible/air bands see bright cloud tops; cold bands (thermal proxies)
    see a dark "cold" value instead, which is the contrast the cheap
    on-board detector exploits.
    """
    return 0.08 if band.cloud_cold else band.cloud_brightness


class CloudModel:
    """Per-capture cloud fields for one location.

    Args:
        seed: Deterministic seed (typically from the location seed).
        shape: Image shape ``(height, width)``.
        clear_probability: Probability a capture is essentially clear
            (coverage below 1 %).  The paper's large-constellation dataset
            filters at <5 % cloud; our default 0.22 yields a constellation
            cloud-free revisit of a few days with ~50 days satellite-local,
            matching Figure 5's contrast.
        mean_cloudy_coverage: Mean coverage of non-clear captures.
    """

    def __init__(
        self,
        seed: int,
        shape: tuple[int, int],
        clear_probability: float = 0.22,
        mean_cloudy_coverage: float = 0.65,
    ) -> None:
        if not 0.0 <= clear_probability <= 1.0:
            raise ValueError(
                f"clear_probability must be in [0,1], got {clear_probability}"
            )
        if not 0.0 < mean_cloudy_coverage <= 1.0:
            raise ValueError(
                "mean_cloudy_coverage must be in (0,1], "
                f"got {mean_cloudy_coverage}"
            )
        self.seed = seed
        self.shape = shape
        self.clear_probability = clear_probability
        self.mean_cloudy_coverage = mean_cloudy_coverage

    def coverage_at(self, t_days: float) -> float:
        """Cloud coverage fraction for a capture at ``t_days``.

        Mixture model: with probability ``clear_probability`` the capture is
        nearly clear (coverage ~ U[0, 0.01]); otherwise coverage follows a
        Beta distribution with the configured mean, skewed towards heavy
        overcast as real climatology is.
        """
        rng = np.random.default_rng(
            stable_hash(self.seed, "coverage", round(t_days * 1e4))
        )
        if rng.random() < self.clear_probability:
            return 0.01 * float(rng.random())
        mean = self.mean_cloudy_coverage
        # Concentration below 1 gives a U-shaped (bimodal) Beta: a capture
        # is usually either mostly clear or solidly overcast, which is how
        # frontal cloud systems actually read at image scale.
        concentration = 0.9
        a = mean * concentration
        b = (1.0 - mean) * concentration
        return float(np.clip(rng.beta(a, b), 0.01, 1.0))

    def sample(self, t_days: float) -> CloudSample:
        """Render the full cloud field for a capture at ``t_days``."""
        coverage = self.coverage_at(t_days)
        # Low-frequency field: at tile scale (hundreds of metres) cloud
        # systems are blobby — an area is either solidly overcast or clear,
        # matching the paper's observation that "when the cloud is present,
        # it often covers most of an image" (§3, footnote 6).
        field = fractal_noise(
            self.shape,
            stable_hash(self.seed, "cloudfield", round(t_days * 1e4)),
            octaves=2,
            base_cells=2,
            persistence=0.4,
        )
        if coverage <= 0.0:
            mask = np.zeros(self.shape, dtype=bool)
            thickness = np.zeros(self.shape, dtype=np.float64)
            return CloudSample(0.0, mask, thickness)
        threshold = float(np.quantile(field, 1.0 - coverage))
        mask = field >= threshold
        # The field's maximum always reaches the threshold, so the mask
        # is never empty.
        span = max(1e-9, float(field.max()) - threshold)
        thickness = np.where(
            mask, np.clip((field - threshold) / span, 0.05, 1.0), 0.0
        )
        actual = float(mask.mean())
        return CloudSample(actual, mask, thickness)
