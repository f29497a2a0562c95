"""Satellite sensor model: turns ground truth into observed captures.

A :class:`Capture` is what one satellite records over one location on one
pass: per-band pixel arrays composed as

    observed = clouds( illumination( ground_truth ) ) + sensor noise

plus the metadata evaluation code needs (true cloud mask, illumination
sample, capture time, satellite id).  The pipeline under test only sees the
pixel arrays; the truth fields are for scoring.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.codec import registry
from repro.errors import ImageryError
from repro.imagery.bands import Band
from repro.imagery.clouds import CloudModel, CloudSample, cloud_value
from repro.imagery.earth_model import EarthModel
from repro.imagery.illumination import IlluminationModel, IlluminationSample
from repro.imagery.noise import stable_hash
from repro.obs import trace

# (raw env string -> parsed bytes) per variable: re-parse only when the
# variable changes, keeping the per-capture cost at one dict lookup.
# repro: allow(RPR005): pure parse memo — the value is a deterministic function of the key, so independently-warmed worker copies can never disagree
_BUDGET_MEMO: dict[tuple[str, str | None], int] = {}


def _mb_budget(name: str, default: float) -> int:
    """Read a ``REPRO_*_MB`` byte budget at call time.

    Historically these were read once at import, which silently ignored
    variables exported after ``import repro`` (sensor.py is a registered
    accessor module for its two cache budgets; see
    ``repro.lint.rules.envflags``).

    Raises:
        ValueError: For a set value that is not a finite, non-negative
            number.
    """
    raw = os.environ.get(name)
    memo_key = (name, raw)
    cached = _BUDGET_MEMO.get(memo_key)
    if cached is not None:
        return cached
    if raw is None or raw.strip() == "":
        value = int(default * 1e6)
    else:
        try:
            megabytes = float(raw)
            value = int(megabytes * 1e6)
        except (ValueError, OverflowError):  # garbage, nan, +-inf
            megabytes = -1.0
        if megabytes < 0:  # 0 turns a cache off; below that is an error
            raise ValueError(f"{name}={raw!r} is not a megabyte count")
    _BUDGET_MEMO[memo_key] = value
    return value


def capture_cache_bytes() -> int:
    """Byte budget per sensor for the warm-state capture cache.

    A capture is deterministic in (satellite, time), so repeated scenario
    runs over one dataset — e.g. comparing three policies on the same
    schedule — re-observe identical captures; every run after the first
    renders only the captures that did not fit (see
    :meth:`SatelliteSensor.capture`).  ``REPRO_CAPTURE_CACHE_MB``
    (default 64) sizes it, read at call time; 0 turns the cache off.
    """
    return _mb_budget("REPRO_CAPTURE_CACHE_MB", 64.0)


def capture_cache_total_bytes() -> int:
    """Process-wide capture-cache ceiling across all live sensors.

    Bounds many-location datasets that would otherwise multiply the
    per-sensor budget without bound.  ``REPRO_CAPTURE_CACHE_TOTAL_MB``
    (default 512) sizes it, read at call time.
    """
    return _mb_budget("REPRO_CAPTURE_CACHE_TOTAL_MB", 512.0)

#: Live sensors with non-empty caches, keyed by id (weak values: garbage-
#: collected datasets drop out, releasing their share of the global budget
#: automatically; a WeakValueDictionary is used because the dataclass'
#: generated __eq__ makes instances unhashable, ruling out a WeakSet).
# repro: allow(RPR005): per-process cache bookkeeping by design — caches are excluded from pickling (__getstate__), so worker copies start empty and only ever track that worker's own sensors
_CACHING_SENSORS: "weakref.WeakValueDictionary[int, SatelliteSensor]" = (
    weakref.WeakValueDictionary()
)


def _global_capture_cache_bytes() -> int:
    """Bytes currently held by all live sensors' capture caches."""
    return sum(
        sensor._capture_cache_bytes for sensor in _CACHING_SENSORS.values()
    )


def _enforce_global_capture_budget() -> None:
    """Evict oldest entries of the largest caches until under the ceiling.

    Reclaims from whichever sensor holds the most (a hoarding sensor that
    is no longer visited gives its share back), rather than punishing the
    sensor that happens to be inserting.
    """
    total = _global_capture_cache_bytes()
    ceiling = capture_cache_total_bytes()
    while total > ceiling:
        victim = max(
            _CACHING_SENSORS.values(),
            key=lambda sensor: sensor._capture_cache_bytes,
            default=None,
        )
        if victim is None or not victim._capture_cache:
            break
        _, evicted = victim._capture_cache.popitem(last=False)
        freed = victim._capture_nbytes(evicted)
        victim._capture_cache_bytes -= freed
        total -= freed


@dataclass
class Capture:
    """One multi-band observation of a location by one satellite.

    Attributes:
        location: Location name.
        satellite_id: Index of the observing satellite in its constellation.
        t_days: Capture time in days since the simulation epoch.
        pixels: Mapping band name -> observed image in [0, 1].
        bands: The band definitions, in capture order.
        cloud: The true cloud state (evaluation-only oracle).
        illumination: The true illumination sample (evaluation-only oracle).
    """

    location: str
    satellite_id: int
    t_days: float
    pixels: dict[str, np.ndarray]
    bands: tuple[Band, ...]
    cloud: CloudSample
    illumination: IlluminationSample

    @property
    def shape(self) -> tuple[int, int]:
        """Pixel shape of the capture (all bands share it)."""
        first = next(iter(self.pixels.values()))
        return first.shape  # type: ignore[return-value]

    @property
    def cloud_coverage(self) -> float:
        """True fraction of cloudy pixels (oracle)."""
        return self.cloud.coverage

    def band_names(self) -> list[str]:
        """Band names present in this capture, in order."""
        return [b.name for b in self.bands]


@dataclass
class SatelliteSensor:
    """Renders captures for a (location, constellation) pair.

    Args:
        earth: The ground-truth model for the location.
        bands: Bands the sensor records.
        noise_sigma: Std-dev of additive Gaussian sensor noise.  The paper
            notes raw-sensor artefacts are absent from public datasets, so
            the default is small; set to 0 for noise-free analytic tests.
    """

    earth: EarthModel
    bands: tuple[Band, ...]
    noise_sigma: float = 0.002
    _cloud_model: CloudModel | None = field(default=None, repr=False)
    _illum_model: IlluminationModel | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ImageryError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}"
            )
        if self._cloud_model is None:
            self._cloud_model = CloudModel(
                seed=stable_hash(self.earth.spec.seed, "clouds"),
                shape=self.earth.spec.shape,
            )
        if self._illum_model is None:
            self._illum_model = IlluminationModel(
                seed=stable_hash(self.earth.spec.seed, "illumination"),
            )
        self._capture_cache: OrderedDict[tuple, Capture] = OrderedDict()
        self._capture_cache_bytes = 0

    def __getstate__(self):
        """Pickle without the capture cache (worker tasks start cold)."""
        state = dict(self.__dict__)
        state["_capture_cache"] = OrderedDict()
        state["_capture_cache_bytes"] = 0
        return state

    @property
    def cloud_model(self) -> CloudModel:
        """The cloud climatology used by this sensor."""
        assert self._cloud_model is not None
        return self._cloud_model

    @property
    def illumination_model(self) -> IlluminationModel:
        """The illumination process used by this sensor."""
        assert self._illum_model is not None
        return self._illum_model

    def capture(self, satellite_id: int, t_days: float) -> Capture:
        """Record one capture of the location at ``t_days``.

        Cloud and illumination are shared across bands of the same capture
        (one atmosphere per pass), while sensor noise is independent per
        band.

        Captures are deterministic in ``(satellite_id, t_days)``, so they
        are memoized; cached pixel arrays are returned read-only and
        shared between callers.  A miss is cached only if it fits in the
        per-sensor budget (``REPRO_CAPTURE_CACHE_MB``), so cached entries
        are never displaced by new ones: every run over a dataset scans
        its captures in the same time order, and keeping the first ones
        makes each repeated scan hit on them where LRU would miss on
        every capture of a scan larger than the budget.

        Args:
            satellite_id: Observing satellite index (enters the noise seed).
            t_days: Capture time in days (>= 0).

        Returns:
            A fully-populated :class:`Capture`.
        """
        if t_days < 0:
            raise ImageryError(f"t_days must be >= 0, got {t_days}")
        cache_budget = capture_cache_bytes()
        if cache_budget <= 0:
            with trace.span("imagery"):
                return self._render_capture(satellite_id, t_days)
        # A budget lowered at run time shrinks the cache first, so both
        # budgets bound it after every call.
        while self._capture_cache_bytes > cache_budget:
            _, evicted = self._capture_cache.popitem(last=False)
            self._capture_cache_bytes -= self._capture_nbytes(evicted)
        # Raw-float key: replayed schedules pass bit-identical times, and
        # quantizing would let two nearby-but-distinct capture times
        # silently collide onto one rendered capture.
        key = (satellite_id, t_days)
        result = self._capture_cache.get(key)
        if result is None:
            with trace.span("imagery"):
                result = self._render_capture(satellite_id, t_days)
            nbytes = self._capture_nbytes(result)
            if self._capture_cache_bytes + nbytes <= cache_budget:
                for array in self._capture_arrays(result):
                    array.setflags(write=False)
                _CACHING_SENSORS[id(self)] = self
                self._capture_cache[key] = result
                self._capture_cache_bytes += nbytes
        _enforce_global_capture_budget()
        return result

    @staticmethod
    def _capture_arrays(capture: Capture) -> list[np.ndarray]:
        """Every array a cached capture shares with its consumers."""
        return list(capture.pixels.values()) + [
            capture.cloud.mask,
            capture.cloud.thickness,
        ]

    @classmethod
    def _capture_nbytes(cls, capture: Capture) -> int:
        """Cache footprint of one capture (pixels + cloud truth fields)."""
        return sum(array.nbytes for array in cls._capture_arrays(capture))

    def _render_capture(self, satellite_id: int, t_days: float) -> Capture:
        """Synthesize the capture (the uncached path)."""
        cloud = self.cloud_model.sample(t_days)
        illumination = self.illumination_model.sample(t_days)
        pixels = render_pixels(
            self.earth,
            self.bands,
            t_days,
            cloud,
            illumination,
            noise_sigma=self.noise_sigma,
            satellite_id=satellite_id,
        )
        return Capture(
            location=self.earth.spec.name,
            satellite_id=satellite_id,
            t_days=t_days,
            pixels=pixels,
            bands=self.bands,
            cloud=cloud,
            illumination=illumination,
        )


def render_pixels(
    earth: EarthModel,
    bands: tuple[Band, ...],
    t_days: float,
    cloud: CloudSample,
    illumination: IlluminationSample,
    noise_sigma: float = 0.0,
    satellite_id: int = 0,
) -> dict[str, np.ndarray]:
    """The observed pixels of every band of one capture.

    Each band is the ground truth at ``t_days`` under ``illumination``
    (gain, offset, clip to [0, 1]), with ``cloud`` composited where its
    mask is set, plus Gaussian sensor noise of std-dev ``noise_sigma``
    seeded per (location, band, satellite, time), clipped to [0, 1].
    Satellite captures and cloud-detector training images both render
    here.  A noise-free band is already in [0, 1] before the final clip,
    so there the clip changes nothing.

    With the compiled kernels each band is one native pass, rendered in
    place over its fresh ground-truth array; without them numpy runs the
    same operations.  The cloud blend weights are computed once per
    capture, zero off the mask, so every pixel takes the same blend.
    """
    kernels = registry.kernels()
    alpha = cloud.alpha() if cloud.mask.any() else None
    pixels: dict[str, np.ndarray] = {}
    for band in bands:
        surface = earth.ground_truth(band.name, t_days)
        noise = None
        if noise_sigma > 0:
            rng = np.random.default_rng(
                stable_hash(
                    earth.spec.seed,
                    "sensor-noise",
                    band.name,
                    satellite_id,
                    round(t_days * 1e4),
                )
            )
            noise = rng.normal(0.0, noise_sigma, size=surface.shape)
        if kernels is not None:
            pixels[band.name] = kernels.render_band(
                surface,
                illumination.gain,
                illumination.offset,
                alpha,
                cloud_value(band),
                noise,
            )
            continue
        observed = illumination.apply(surface)
        if alpha is not None:
            observed = observed * (1.0 - alpha) + cloud_value(band) * alpha
        if noise is not None:
            observed += noise
        pixels[band.name] = np.clip(observed, 0.0, 1.0, out=observed)
    return pixels
