"""Adapter giving the real bit-exact codec the rate model's interface.

The Earth+ pipeline is written against a small encode interface —
"compress this ROI to this many bytes, tell me the actual size, quality,
and reconstruction".  :class:`RealCodecAdapter` satisfies it with the
genuine arithmetic-coded :class:`~repro.codec.jpeg2000.ImageCodec`, so the
entire on-board pipeline (and simulator) can run on real bitstreams.  The
default fast path is :class:`~repro.codec.ratemodel.RateModel`; both are
interchangeable, and the integration tests assert they agree.
"""

from __future__ import annotations

import numpy as np

from repro.codec.jpeg2000 import CodecConfig, ImageCodec
from repro.codec.metrics import psnr as psnr_metric
from repro.codec.ratemodel import QualityLayer, RateModelResult
from repro.errors import CodecError, RateControlError


class RealCodecAdapter:
    """Encode with the true arithmetic-coded codec, rate model interface.

    Args:
        config: Codec geometry (tile size, DWT levels).
        n_layers: Quality layers per encoded image.
        backend: Entropy-coding engine name from the backend registry
            (``None`` resolves through the registry precedence chain —
            explicit argument, ``$REPRO_CODEC_BACKEND``, then the
            ``"real"`` best-available engine).  All engines are
            bit-exact.
    """

    def __init__(
        self,
        config: CodecConfig | None = None,
        n_layers: int = 1,
        backend: str | None = None,
    ) -> None:
        self.config = config if config is not None else CodecConfig()
        self.n_layers = n_layers
        self._codec = ImageCodec(self.config, backend=backend)
        self.backend = self._codec.backend

    def encode(
        self,
        image: np.ndarray,
        base_step: float | None = None,
        roi: np.ndarray | None = None,
    ) -> RateModelResult:
        """Encode at a fixed quantizer step; returns real byte counts."""
        encoded = self._codec.encode(
            image, base_step=base_step, roi=roi, n_layers=self.n_layers
        )
        return self._to_result(image, encoded, roi)

    def find_step_for_bytes(
        self,
        image: np.ndarray,
        target_bytes: int,
        roi: np.ndarray | None = None,
        tolerance: float = 0.05,
        max_iterations: int = 24,
    ) -> RateModelResult:
        """Meet a byte budget via the codec's own RD-optimal truncation.

        Unlike the rate model's quantizer-step bisection, the real codec
        encodes once at a fine step and truncates bit-planes to the budget
        (post-compression rate-distortion optimization), which is exactly
        how JPEG 2000 encoders hit rate targets.
        """
        if target_bytes <= 0:
            raise RateControlError(
                f"target_bytes must be positive, got {target_bytes}"
            )
        encoded = self._codec.encode(
            image,
            target_bytes=target_bytes,
            roi=roi,
            n_layers=self.n_layers,
        )
        return self._to_result(image, encoded, roi)

    def _to_result(self, image, encoded, roi) -> RateModelResult:
        reconstruction = self._codec.decode(encoded)
        grid_shape = self._codec.tile_grid_shape(image.shape)
        if roi is None:
            roi = np.ones(grid_shape, dtype=bool)
        tile = self.config.tile_size
        roi_mask = np.repeat(
            np.repeat(roi, tile, axis=0), tile, axis=1
        )[: image.shape[0], : image.shape[1]]
        roi_pixels = int(roi_mask.sum())
        quality = (
            psnr_metric(image[roi_mask], reconstruction[roi_mask])
            if roi_pixels
            else float("inf")
        )
        total = encoded.total_bytes
        layers_factory = None
        if self.n_layers > 1:
            # Deferred: each view costs a full decode + PSNR, and the
            # downlink phase only asks for them when a capture exceeds
            # its contact capacity.
            layers_factory = lambda: self._layer_views(  # noqa: E731
                image, encoded, roi_mask, roi_pixels,
                total, quality, reconstruction,
            )
        return RateModelResult(
            coded_bytes=total,
            payload_bytes=encoded.payload_bytes(),
            psnr_roi=quality,
            reconstruction=reconstruction,
            base_step=encoded.base_step,
            roi_pixels=roi_pixels,
            layers_factory=layers_factory,
        )

    def _layer_views(
        self, image, encoded, roi_mask, roi_pixels, total, quality, recon
    ) -> tuple[QualityLayer, ...]:
        """Byte-exact truncation views of the layered bitstream.

        Keeping ``k`` layers drops exactly the trailing layers' payload
        segments from the container, so the truncated size is the full
        size minus the shed layers' payload bytes — the same arithmetic a
        ground station applies when it stops reading after ``k`` layers.
        """
        full_payload = encoded.payload_bytes()
        views = []
        for kept in range(1, encoded.n_layers):
            truncated = self._codec.decode(encoded, layers=kept)
            views.append(
                QualityLayer(
                    coded_bytes=total
                    - (full_payload - encoded.payload_bytes(kept)),
                    psnr_roi=(
                        psnr_metric(image[roi_mask], truncated[roi_mask])
                        if roi_pixels
                        else float("inf")
                    ),
                    reconstruction=truncated,
                )
            )
        views.append(
            QualityLayer(
                coded_bytes=total, psnr_roi=quality, reconstruction=recon
            )
        )
        return tuple(views)
