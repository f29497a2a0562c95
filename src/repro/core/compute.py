"""Runtime cost model for the on-board pipeline (paper Figure 16).

The paper benchmarks per-image processing time on an AMD EPYC 7452: both
Earth+ and the baselines spend 0.65 s encoding; Kodan's accurate cloud
detector costs 0.39 s versus 0.12 s for the cheap tree shared by Earth+ and
SatRoI; and Earth+'s low-resolution change detection undercuts SatRoI's
full-resolution pass.

Two views are provided:

* the **calibrated model** (:class:`RuntimeCostModel`) reproduces the
  paper-scale numbers per stage and policy for the Figure 16 bench;
* **measured timings** (:func:`measure_stage_timings`) time this
  repository's actual kernels, so the *ordering* claims (Earth+ lowest;
  cheap detector ≪ accurate detector; low-res change detection ≪ full-res)
  are validated on real code, not just constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.change_detection import detect_changes
from repro.core.cloud import CloudDetector
from repro.core.reference import downsample_image
from repro.core.tiles import TileGrid
from repro.errors import ConfigError
from repro.imagery.bands import Band

#: Paper-scale stage costs, seconds per full Doves frame (Figure 16).
PAPER_STAGE_SECONDS = {
    "encode": 0.65,
    "cloud_cheap": 0.12,
    "cloud_accurate": 0.39,
    "change_lowres": 0.04,
    "change_fullres": 0.18,
}


@dataclass(frozen=True)
class StageTiming:
    """One pipeline stage's runtime.

    Attributes:
        stage: Stage name.
        seconds: Runtime in seconds.
    """

    stage: str
    seconds: float


class RuntimeCostModel:
    """Per-policy runtime composition from calibrated stage costs.

    Args:
        stage_seconds: Stage-cost table; defaults to the paper's numbers.
    """

    def __init__(self, stage_seconds: dict[str, float] | None = None) -> None:
        self.stage_seconds = dict(
            PAPER_STAGE_SECONDS if stage_seconds is None else stage_seconds
        )
        for stage, seconds in self.stage_seconds.items():
            if seconds < 0:
                raise ConfigError(f"stage {stage!r} has negative cost {seconds}")

    def policy_stages(self, policy: str) -> list[StageTiming]:
        """Stage breakdown for one policy's per-image processing.

        Args:
            policy: One of ``"earthplus"``, ``"kodan"``, ``"satroi"``.

        Returns:
            Ordered stage timings.

        Raises:
            ConfigError: For unknown policies.
        """
        table = self.stage_seconds
        if policy == "earthplus":
            stages = [
                ("encode", table["encode"]),
                ("cloud_detection", table["cloud_cheap"]),
                ("change_detection", table["change_lowres"]),
            ]
        elif policy == "kodan":
            stages = [
                ("encode", table["encode"]),
                ("cloud_detection", table["cloud_accurate"]),
            ]
        elif policy == "satroi":
            stages = [
                ("encode", table["encode"]),
                ("cloud_detection", table["cloud_cheap"]),
                ("change_detection", table["change_fullres"]),
            ]
        else:
            raise ConfigError(f"unknown policy {policy!r}")
        return [StageTiming(stage=s, seconds=sec) for s, sec in stages]

    def policy_total(self, policy: str) -> float:
        """Total per-image runtime for a policy."""
        return sum(t.seconds for t in self.policy_stages(policy))


def measure_stage_timings(
    pixels: dict[str, np.ndarray],
    bands: tuple[Band, ...],
    grid: TileGrid,
    cheap_detector: CloudDetector,
    accurate_detector: CloudDetector,
    reference: np.ndarray,
    downsample: int = 8,
    theta: float = 0.01,
    repeats: int = 3,
) -> dict[str, float]:
    """Time this repository's real kernels on one capture.

    Args:
        pixels: Capture band arrays.
        bands: Band definitions.
        grid: Tile grid of the capture.
        cheap_detector: On-board tile-level detector.
        accurate_detector: Ground pixel-level detector.
        reference: Full-resolution reference image for change detection.
        downsample: Low-res ratio for the Earth+ change-detection path.
        theta: Change threshold.
        repeats: Median-of-N repetitions.

    Returns:
        Stage name -> median seconds, with stages named as in
        :data:`PAPER_STAGE_SECONDS`.
    """
    band_name = bands[0].name
    image = pixels[band_name]

    def timed(fn) -> float:
        fn()  # warm caches/allocator out of the measurement
        samples = []
        for _ in range(max(3, repeats)):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    reference_lr = downsample_image(reference, downsample)

    timings = {
        "cloud_cheap": timed(
            lambda: cheap_detector.detect(pixels, bands, grid)
        ),
        "cloud_accurate": timed(
            lambda: accurate_detector.detect(pixels, bands, grid)
        ),
        "change_lowres": timed(
            lambda: detect_changes(
                reference_lr,
                downsample_image(image, downsample),
                grid,
                downsample,
                theta,
            )
        ),
        "change_fullres": timed(
            lambda: detect_changes(reference, image, grid, 1, theta)
        ),
    }
    return timings


def measure_encode_timings(
    image: np.ndarray,
    tile_size: int = 64,
    base_step: float = 1.0 / 256.0,
    repeats: int = 3,
    backends: "tuple[str, ...] | None" = None,
) -> dict[str, float]:
    """Time the real codec's encode and decode under each entropy backend.

    Every registered backend is bit-exact against the per-bit oracle, so
    this measures pure implementation speed of the same computation; the
    DWT and quantization around the entropy coder are the same compiled
    kernels for every backend.

    Args:
        image: 2-D float image in [0, 1].
        tile_size: Codec tile edge.
        base_step: Quantizer base step (fine enough to occupy many planes).
        repeats: Median-of-N repetitions.
        backends: Engine names to measure; default: every registered
            engine.

    Returns:
        ``{"encode_<backend>": s, "decode_<backend>": s}`` per backend.
    """
    from repro.codec import registry
    from repro.codec.jpeg2000 import CodecConfig, ImageCodec

    def timed(fn) -> float:
        fn()  # warm caches/allocator out of the measurement
        samples = []
        for _ in range(max(3, repeats)):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    if backends is None:
        backends = registry.names()
    config = CodecConfig(tile_size=tile_size, base_step=base_step)
    timings: dict[str, float] = {}
    encoded = None
    for backend in backends:
        codec = ImageCodec(config, backend=backend)
        timings[f"encode_{backend}"] = timed(lambda: codec.encode(image))
        if encoded is None:
            encoded = codec.encode(image)
        timings[f"decode_{backend}"] = timed(lambda: codec.decode(encoded))
    return timings
