"""The Earth+ on-board pipeline (§5): what runs on the satellite.

Per capture, in order:

1. **Cloud removal** — the cheap decision-tree detector flags cloudy tiles;
   their pixels are zeroed and they are never downloaded.
2. **Image dropping** — captures over 50 % detected cloud are discarded
   outright.
3. **Illumination alignment** — linear fit of the cached low-res reference
   to the (low-res) capture over non-cloudy pixels.
4. **Change detection** — per-tile mean absolute difference at reference
   resolution, thresholded at theta.
5. **Region-of-interest encoding** — changed, non-cloudy tiles are encoded
   at ``gamma`` bits per pixel (whole-image bpp = gamma x changed fraction,
   the paper's Kakadu configuration).
6. **Guaranteed download** — once per configured period, a sufficiently
   clear capture is downloaded in its entirety so undetected changes are
   bounded in age.

When no reference is cached (cold start, or uplink outage since launch) the
pipeline degrades to Kodan-like behaviour: download everything non-cloudy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.codec.jpeg2000 import CodecConfig
from repro.codec.ratemodel import QualityLayer, RateModel
from repro.core.change_detection import (
    ChangeDetectionResult,
    detect_changes_many,
)
from repro.core.cloud import CloudDetector
from repro.core.config import EarthPlusConfig
from repro.core.reference import (
    OnboardReferenceCache,
    downsample_image,
    downsample_many,
)
from repro.core.tiles import TileGrid
from repro.errors import PipelineError
from repro.imagery.bands import Band
from repro.imagery.sensor import Capture
from repro.obs import trace

#: Bytes for the per-band illumination alignment parameters shipped with
#: each download (two float32 values).
_ALIGNMENT_BYTES = 8

#: Public alias (baselines ship the same two float32 values per band).
ALIGNMENT_BYTES = _ALIGNMENT_BYTES


def build_rate_model(
    config: EarthPlusConfig, codec_config: CodecConfig | None = None
):
    """The configured rate backend: fast model or real arithmetic codec.

    ``codec_backend`` selects ``"model"`` (calibrated rate model) or one
    of the registered entropy-coding engines (``"reference"``,
    ``"vectorized"``, ``"compiled"``, or the ``"real"`` best-available
    alias) — engine names resolve through ``repro.codec.registry`` with
    its one precedence chain, so ``$REPRO_CODEC_BACKEND`` applies when
    the config leaves the engine unpinned.
    """
    resolved = (
        codec_config
        if codec_config is not None
        else CodecConfig(tile_size=config.tile_size)
    )
    if config.codec_backend != "model":
        from repro.codec import registry
        from repro.codec.adapter import RealCodecAdapter

        return RealCodecAdapter(
            resolved,
            n_layers=config.n_quality_layers,
            backend=registry.resolve_name(
                config_backend=config.codec_backend
            ),
        )
    return RateModel(resolved)


class RoiRateController:
    """Warm-started rate-targeted ROI encoding.

    Shared by the Earth+ encoder and every baseline so all policies hit
    identical operating points: per (location, band) the previous
    quantizer step is tried first and accepted when the coded size lands
    within 10 % under the target, otherwise a full step search runs.

    Args:
        config: Shared tunables (codec backend, tile size, quality layers).
        codec_config: Optional codec geometry override.
    """

    def __init__(
        self,
        config: EarthPlusConfig,
        codec_config: CodecConfig | None = None,
    ) -> None:
        self.rate_model = build_rate_model(config, codec_config)
        self.n_layers = config.n_quality_layers
        self._last_step: dict[tuple[str, str], float] = {}

    def encode_roi(
        self,
        key: tuple[str, str],
        image: np.ndarray,
        roi: np.ndarray,
        target_bytes: int,
    ):
        """Encode ``roi`` of ``image`` at close to ``target_bytes``.

        Backends exposing ``prepare()`` (the rate model) have their ROI
        tiles forward-transformed once and shared between the warm-step
        attempt and the fallback bisection search — the transform does
        not depend on the quantizer step.
        """
        warm = self._last_step.get(key)
        decomps = None
        prepare = getattr(self.rate_model, "prepare", None)
        if prepare is not None:
            decomps = prepare(image, roi)
        result = self._encode_roi_inner(
            image, roi, target_bytes, warm, decomps, key
        )
        if (
            self.n_layers > 1
            and result.layers is None
            and result.layers_factory is None
        ):
            # Deferred: each view is an extra encode, and the views are
            # only read when the downlink budget actually binds.
            result.layers_factory = (
                lambda: self._model_layers(image, roi, result, decomps)
            )
        return result

    def _encode_roi_inner(
        self, image, roi, target_bytes, warm, decomps, key
    ):
        if warm is not None:
            if decomps is not None:
                # The byte estimate alone decides warm acceptance and is
                # bit-identical to encode().coded_bytes, so the (rejected)
                # warm attempt skips reconstruction entirely — and the
                # accepted one reuses the estimate's payload statistics.
                coded, payload_bits, segments = (
                    self.rate_model.estimate_with_stats(decomps, warm)
                )
                if 0.9 * target_bytes <= coded <= target_bytes:
                    return self.rate_model.encode(
                        image, warm, roi, decompositions=decomps,
                        payload_hint=(warm, payload_bits, segments),
                    )
            else:
                result = self.rate_model.encode(image, warm, roi)
                if 0.9 * target_bytes <= result.coded_bytes <= target_bytes:
                    return result
        if decomps is not None:
            result = self.rate_model.find_step_for_bytes(
                image, target_bytes, roi, tolerance=0.08, max_iterations=14,
                decompositions=decomps,
            )
        else:
            result = self.rate_model.find_step_for_bytes(
                image, target_bytes, roi, tolerance=0.08, max_iterations=14
            )
        self._last_step[key] = result.base_step
        return result

    def _model_layers(self, image, roi, result, decomps):
        """Quality-layer views for the fast rate model.

        Layers split the embedded bitstream at bit-plane boundaries, and
        truncating one trailing bit-plane is exactly a doubling of the
        effective quantizer step — so the model's view of "keep ``k`` of
        ``L`` layers" is its own encode at ``base_step * 2**(L - k)``.
        The real codec backends produce their views from the genuine
        layered bitstream instead (see
        :meth:`~repro.codec.adapter.RealCodecAdapter._layer_views`).
        """
        views = []
        for kept in range(1, self.n_layers):
            step = result.base_step * float(2 ** (self.n_layers - kept))
            if decomps is not None:
                coarse = self.rate_model.encode(
                    image, step, roi, decompositions=decomps
                )
            else:
                coarse = self.rate_model.encode(image, step, roi)
            views.append(
                QualityLayer(
                    coded_bytes=coarse.coded_bytes,
                    psnr_roi=coarse.psnr_roi,
                    reconstruction=coarse.reconstruction,
                )
            )
        views.append(
            QualityLayer(
                coded_bytes=result.coded_bytes,
                psnr_roi=result.psnr_roi,
                reconstruction=result.reconstruction,
            )
        )
        return tuple(views)


@dataclass
class BandEncodeResult:
    """Per-band outcome of processing one capture on board.

    Attributes:
        band: Band name.
        downloaded_tiles: Boolean tile grid of downloaded tiles.
        cloudy_tiles: Boolean tile grid of tiles removed as cloud.
        changed_fraction: Fraction of tiles the detector flagged changed.
        bytes_downlinked: Coded bytes for this band (0 if nothing downloaded).
        psnr_downloaded: PSNR of the coded reconstruction over downloaded
            tiles (inf when nothing was downloaded).
        reconstruction: Full-frame reconstruction; valid on downloaded tiles.
        gain: Illumination gain (reference -> capture); 1.0 without a
            reference.
        offset: Illumination offset.
        had_reference: Whether a cached reference drove change detection.
        detection: The raw change-detection result (None without reference).
        layers: Quality-layer prefix views of the coded payload, finest
            last (None when ``n_quality_layers == 1``, nothing was coded,
            or the views have not been materialized yet — see
            :meth:`materialized_layers`).  The downlink phase sheds
            trailing views under contact-capacity pressure.
        layers_factory: Deferred view construction (building views costs
            extra codec work per band, so it only happens when the
            downlink budget actually binds).
        layers_shed: Trailing quality layers shed at downlink time; when
            positive, ``bytes_downlinked``/``psnr_downloaded``/
            ``reconstruction`` already reflect the truncated stream.
    """

    band: str
    downloaded_tiles: np.ndarray
    cloudy_tiles: np.ndarray
    changed_fraction: float
    bytes_downlinked: int
    psnr_downloaded: float
    reconstruction: np.ndarray
    gain: float
    offset: float
    had_reference: bool
    detection: ChangeDetectionResult | None = None
    cloudy_pixels: np.ndarray | None = None
    layers: tuple[QualityLayer, ...] | None = None
    layers_factory: "Callable[[], tuple[QualityLayer, ...]] | None" = field(
        default=None, repr=False, compare=False
    )
    layers_shed: int = 0

    def materialized_layers(self) -> tuple[QualityLayer, ...] | None:
        """The layer views, building (and caching) them on first demand."""
        if self.layers is None and self.layers_factory is not None:
            self.layers = self.layers_factory()
        return self.layers

    @property
    def downloaded_fraction(self) -> float:
        """Fraction of tiles downloaded (Figure 12/13's x-axis)."""
        return float(self.downloaded_tiles.mean())


@dataclass
class CaptureEncodeResult:
    """Whole-capture outcome of the on-board pipeline.

    Attributes:
        location: Location name.
        satellite_id: Observing satellite.
        t_days: Capture time.
        dropped: True when the capture was discarded for cloud (> 50 %).
        guaranteed: True when this was a guaranteed full download.
        cloud_coverage_detected: On-board detected cloud fraction.
        bands: Per-band results (empty when dropped).
        onboard_encoded_bytes: Bytes of encoded capture data held on board.
    """

    location: str
    satellite_id: int
    t_days: float
    dropped: bool
    guaranteed: bool
    cloud_coverage_detected: float
    bands: list[BandEncodeResult] = field(default_factory=list)
    onboard_encoded_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Total downlink bytes for this capture."""
        return sum(b.bytes_downlinked for b in self.bands)

    @property
    def layers_shed(self) -> int:
        """Trailing quality layers shed across all bands at downlink."""
        return sum(b.layers_shed for b in self.bands)


class EarthPlusEncoder:
    """The on-board Earth+ encoder for one satellite.

    Args:
        config: Earth+ tunables.
        bands: Bands the satellite captures.
        image_shape: Capture pixel shape.
        cloud_detector: The cheap on-board detector.
        cache: This satellite's reference cache (uplinked by the ground).
        codec_config: Codec geometry (tile size is taken from ``config``).
    """

    def __init__(
        self,
        config: EarthPlusConfig,
        bands: tuple[Band, ...],
        image_shape: tuple[int, int],
        cloud_detector: CloudDetector,
        cache: OnboardReferenceCache,
        codec_config: CodecConfig | None = None,
    ) -> None:
        self.config = config
        self.bands = bands
        self.image_shape = image_shape
        self.cloud_detector = cloud_detector
        self.cache = cache
        self.grid = TileGrid(image_shape, config.tile_size)
        # Warm-started per-(location, band) rate search shared with the
        # baselines, to speed the bpp-target search across a timeline.
        self.rate = RoiRateController(config, codec_config)

    # ------------------------------------------------------------------
    def process_capture(
        self,
        capture: Capture,
        guaranteed_due: bool = False,
    ) -> CaptureEncodeResult:
        """Run the full §5 pipeline over one capture.

        Args:
            capture: The observation to compress.
            guaranteed_due: Whether the guaranteed-download timer has
                expired for this location (the simulator tracks timers).

        Returns:
            The per-capture result with real byte accounting.
        """
        if capture.shape != self.image_shape:
            raise PipelineError(
                f"capture shape {capture.shape} != encoder shape {self.image_shape}"
            )
        cloud_pixels = self.cloud_detector.detect(
            capture.pixels, capture.bands, self.grid
        )
        coverage = float(cloud_pixels.mean())
        if coverage > self.config.drop_cloud_fraction:
            return CaptureEncodeResult(
                location=capture.location,
                satellite_id=capture.satellite_id,
                t_days=capture.t_days,
                dropped=True,
                guaranteed=False,
                cloud_coverage_detected=coverage,
            )
        # A tile with meaningful detected cloud is removed rather than
        # downloaded: its cloudy pixels carry no ground content, and its
        # clear remainder will be captured on a later, clearer pass.
        cloudy_tiles = self.grid.reduce_fraction(cloud_pixels) > 0.3
        # Guaranteed downloads additionally require a reasonably clear sky,
        # otherwise they would ship mostly zeros.
        guaranteed = guaranteed_due and coverage <= 0.05
        band_results = self._process_bands_batched(
            capture, cloud_pixels, cloudy_tiles, guaranteed
        )
        onboard_bytes = sum(b.bytes_downlinked for b in band_results)
        return CaptureEncodeResult(
            location=capture.location,
            satellite_id=capture.satellite_id,
            t_days=capture.t_days,
            dropped=False,
            guaranteed=guaranteed,
            cloud_coverage_detected=coverage,
            bands=band_results,
            onboard_encoded_bytes=onboard_bytes,
        )

    # ------------------------------------------------------------------
    def _process_bands_batched(
        self,
        capture: Capture,
        cloud_pixels: np.ndarray,
        cloudy_tiles: np.ndarray,
        guaranteed: bool,
    ) -> list[BandEncodeResult]:
        """All bands of a capture, processed as one stack.

        Cloud removal and reference-resolution downsampling run once on a
        ``(band, h, w)`` stack, the shared non-cloud validity mask is
        computed once instead of per band, and change detection for every
        reference-carrying band goes through one
        :func:`~repro.core.change_detection.detect_changes_many` call.
        Each band's result is bit-identical to processing that band alone
        (``process_band`` in ``tests/sim_oracle.py``, the differential-test
        oracle).
        """
        ratio = self.config.reference_downsample
        images = np.stack(
            [capture.pixels[band.name] for band in self.bands]
        )
        cleaned = np.where(cloud_pixels[None, :, :], 0.0, images)
        n_bands = len(self.bands)
        had_reference = [
            self.cache.has(capture.location, band.name)
            for band in self.bands
        ]
        detections: list[ChangeDetectionResult | None] = [None] * n_bands
        unfilled_tiles: list[np.ndarray] = [
            np.zeros(self.grid.grid_shape, dtype=bool)
            for _ in range(n_bands)
        ]
        ref_indices = [i for i in range(n_bands) if had_reference[i]]
        if ref_indices:
            with trace.span("scoring"):
                capture_lr_stack = downsample_many(
                    cleaned[np.array(ref_indices)], ratio
                )
                valid_lr_base = (
                    downsample_image(
                        (~cloud_pixels).astype(np.float64), ratio
                    )
                    > 0.5
                )
                reference_stack = []
                valid_stack = []
                for band_idx in ref_indices:
                    band = self.bands[band_idx]
                    # Always fit illumination against the cached reference
                    # (even for guaranteed full downloads) so the ground
                    # can normalize every ingested tile into one
                    # consistent reference basis.
                    _, reference_lr = self.cache.get(
                        capture.location, band.name
                    )
                    valid_lr = valid_lr_base
                    # Reference pixels the ground marked invalid were never
                    # filled by a download (cold start, or persistent
                    # cloud): exclude them from the illumination fit and
                    # force their tiles to "changed" so the ground can
                    # fill them in.
                    unfilled_lr = ~self.cache.get_validity(
                        capture.location, band.name
                    )
                    if unfilled_lr.any():
                        valid_lr = valid_lr & ~unfilled_lr
                        unfilled_px = (
                            np.repeat(
                                np.repeat(unfilled_lr, ratio, axis=0),
                                ratio,
                                axis=1,
                            )[: self.image_shape[0], : self.image_shape[1]]
                        )
                        unfilled_tiles[band_idx] = self.grid.reduce_any(
                            unfilled_px
                        )
                    reference_stack.append(reference_lr)
                    valid_stack.append(valid_lr)
                results = detect_changes_many(
                    np.stack(reference_stack),
                    capture_lr_stack,
                    self.grid,
                    ratio,
                    self.config.theta,
                    np.stack(valid_stack),
                )
            for band_idx, detection in zip(ref_indices, results):
                detections[band_idx] = detection
        return [
            self._assemble_band_result(
                capture,
                self.bands[band_idx],
                cleaned[band_idx],
                cloud_pixels,
                cloudy_tiles,
                guaranteed,
                had_reference[band_idx],
                detections[band_idx],
                unfilled_tiles[band_idx],
            )
            for band_idx in range(n_bands)
        ]

    def _assemble_band_result(
        self,
        capture: Capture,
        band: Band,
        cleaned: np.ndarray,
        cloud_pixels: np.ndarray,
        cloudy_tiles: np.ndarray,
        guaranteed: bool,
        had_reference: bool,
        detection: ChangeDetectionResult | None,
        unfilled_tiles: np.ndarray,
    ) -> BandEncodeResult:
        """Download decision + ROI encode for one band."""
        gain, offset = (
            (detection.gain, detection.offset)
            if detection is not None
            else (1.0, 0.0)
        )
        if guaranteed or not had_reference:
            download = ~cloudy_tiles
            changed_fraction = float(download.mean())
        else:
            assert detection is not None
            changed = detection.changed_tiles | unfilled_tiles
            changed_fraction = float(changed.mean())
            download = changed & ~cloudy_tiles
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
                cloudy_pixels=cloud_pixels,
            )
        roi_pixels = int(
            (self.grid.tile_pixel_counts() * download.astype(np.int64)).sum()
        )
        target_bytes = max(64, int(self.config.gamma_bpp * roi_pixels / 8.0))
        result = self._encode_roi(
            capture.location, band.name, cleaned, download, target_bytes
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
            detection=detection,
            cloudy_pixels=cloud_pixels,
            layers=result.layers,
            layers_factory=result.layers_factory,
        )

    def _encode_roi(
        self,
        location: str,
        band: str,
        image: np.ndarray,
        roi: np.ndarray,
        target_bytes: int,
    ):
        """Rate-targeted ROI encode with a warm-started step search."""
        return self.rate.encode_roi((location, band), image, roi, target_bytes)
