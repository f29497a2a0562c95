"""Shared machinery for baseline compression policies.

Every baseline shares Earth+'s codec, tile grid, and gamma (bits per
downloaded pixel) so quality comparisons are apples-to-apples; they differ
only in *which tiles they download*.  :class:`BaselinePolicy` provides the
common ROI encoding and result assembly.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EarthPlusConfig
from repro.core.encoder import (
    ALIGNMENT_BYTES as _ALIGNMENT_BYTES,
    BandEncodeResult,
    CaptureEncodeResult,
    RoiRateController,
)
from repro.core.tiles import TileGrid
from repro.imagery.bands import Band
from repro.imagery.sensor import Capture


class BaselinePolicy:
    """Base class: ROI encoding at gamma bpp over a chosen tile mask.

    Baselines never receive uplinked reference updates
    (``uses_uplink = False``), so the simulator's uplink phase skips them
    entirely — they do not implement
    :class:`~repro.core.phases.UplinkReceiver`.

    Args:
        config: Shared tunables (tile size, gamma, drop threshold).
        bands: Band set.
        image_shape: Capture pixel shape.
    """

    uses_uplink = False
    name = "baseline"

    def __init__(
        self,
        config: EarthPlusConfig,
        bands: tuple[Band, ...],
        image_shape: tuple[int, int],
    ) -> None:
        self.config = config
        self.bands = bands
        self.image_shape = image_shape
        self.grid = TileGrid(image_shape, config.tile_size)
        # Same warm-started rate search as the Earth+ encoder, so every
        # policy hits identical rate operating points.
        self.rate = RoiRateController(config)

    def reference_storage_bytes(self) -> int:
        """Baselines keep no reference imagery unless they override this."""
        return 0

    # ------------------------------------------------------------------
    def encode_band(
        self,
        capture: Capture,
        band: Band,
        image: np.ndarray,
        download: np.ndarray,
        cloudy_tiles: np.ndarray,
        changed_fraction: float,
        gain: float = 1.0,
        offset: float = 0.0,
        had_reference: bool = False,
        cloudy_pixels: np.ndarray | None = None,
    ) -> BandEncodeResult:
        """Encode the masked tiles of one band at gamma bits per pixel."""
        if not download.any():
            return BandEncodeResult(
                band=band.name,
                downloaded_tiles=download,
                cloudy_tiles=cloudy_tiles,
                changed_fraction=changed_fraction,
                bytes_downlinked=_ALIGNMENT_BYTES,
                psnr_downloaded=float("inf"),
                reconstruction=np.zeros(self.image_shape, dtype=np.float64),
                gain=gain,
                offset=offset,
                had_reference=had_reference,
                cloudy_pixels=cloudy_pixels,
            )
        roi_pixels = int(
            (self.grid.tile_pixel_counts() * download.astype(np.int64)).sum()
        )
        target_bytes = max(64, int(self.config.gamma_bpp * roi_pixels / 8.0))
        result = self.rate.encode_roi(
            (capture.location, band.name), image, download, target_bytes
        )
        return BandEncodeResult(
            band=band.name,
            downloaded_tiles=download,
            cloudy_tiles=cloudy_tiles,
            changed_fraction=changed_fraction,
            bytes_downlinked=result.coded_bytes + _ALIGNMENT_BYTES,
            psnr_downloaded=result.psnr_roi,
            reconstruction=result.reconstruction,
            gain=gain,
            offset=offset,
            had_reference=had_reference,
            cloudy_pixels=cloudy_pixels,
            layers=result.layers,
            layers_factory=result.layers_factory,
        )

    @staticmethod
    def assemble(
        capture: Capture,
        dropped: bool,
        coverage: float,
        band_results: list[BandEncodeResult],
        guaranteed: bool = False,
    ) -> CaptureEncodeResult:
        """Package per-band results into a capture result."""
        return CaptureEncodeResult(
            location=capture.location,
            satellite_id=capture.satellite_id,
            t_days=capture.t_days,
            dropped=dropped,
            guaranteed=guaranteed,
            cloud_coverage_detected=coverage,
            bands=band_results,
            onboard_encoded_bytes=sum(b.bytes_downlinked for b in band_results),
        )
