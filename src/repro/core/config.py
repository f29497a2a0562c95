"""Configuration: the Doves satellite specification and Earth+ tunables.

:class:`DovesSpec` transcribes the paper's Table 1 (with the same inferred
values the paper italicizes).  :class:`EarthPlusConfig` gathers every knob the
paper introduces: the change threshold ``theta`` (§4.3), the per-tile bit
budget ``gamma`` (§5), the reference downsampling ratio, the
guaranteed-download period, and the uplink-saving switches (on-board cache,
delta updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class DovesSpec:
    """Doves-constellation satellite specification (paper Table 1).

    Attributes:
        ground_contact_duration_s: Usable seconds per ground contact.
        ground_contacts_per_day: Contacts per satellite per day.
        uplink_bps: Ground-to-satellite bandwidth (S-band).
        downlink_bps: Satellite-to-ground bandwidth.
        onboard_storage_bytes: Total on-board storage.
        image_resolution: Sensor frame resolution (height, width).
        image_channels: Number of spectral channels (RGB + InfraRed).
        raw_image_bytes: Raw size of one captured frame.
        ground_sampling_distance_m: Metres per pixel.
        revisit_period_days: Single-satellite revisit period (§3: 10-15 d).
    """

    ground_contact_duration_s: float = 600.0
    ground_contacts_per_day: int = 7
    uplink_bps: float = 250e3
    downlink_bps: float = 200e6
    onboard_storage_bytes: int = 360 * 10**9
    image_resolution: tuple[int, int] = (4400, 6600)
    image_channels: int = 4
    raw_image_bytes: int = 150 * 10**6
    ground_sampling_distance_m: float = 3.7
    revisit_period_days: float = 12.0

    @property
    def image_pixels(self) -> int:
        """Pixels per captured frame (one channel)."""
        return self.image_resolution[0] * self.image_resolution[1]

    @property
    def image_area_km2(self) -> float:
        """Ground footprint of one frame in square kilometres."""
        gsd_km = self.ground_sampling_distance_m / 1000.0
        return self.image_pixels * gsd_km * gsd_km

    @property
    def bytes_per_km2(self) -> float:
        """Raw storage cost of one square kilometre of imagery.

        The paper's Appendix A estimates 0.87 MB/km^2 for Doves frames.
        """
        return self.raw_image_bytes / self.image_area_km2

    @property
    def uplink_bytes_per_contact(self) -> int:
        """Uplink bytes movable during one ground contact."""
        return int(self.uplink_bps * self.ground_contact_duration_s / 8.0)

    @property
    def downlink_bytes_per_contact(self) -> int:
        """Downlink bytes movable during one ground contact."""
        return int(self.downlink_bps * self.ground_contact_duration_s / 8.0)


@dataclass(frozen=True)
class EarthPlusConfig:
    """Every tunable the Earth+ pipeline exposes.

    Attributes:
        tile_size: Geographic tile edge in pixels (§3: 64x64 default).
        theta: Change-detection threshold on per-tile mean absolute pixel
            difference of [0, 1]-normalized values (§3: 0.01).
        gamma_bpp: Bits per pixel granted to each *downloaded* tile; the
            encoder's whole-image bpp is ``gamma_bpp`` times the changed
            fraction, exactly the paper's Kakadu configuration (§5).
        reference_downsample: Linear downsampling ratio of uploaded
            reference images (the paper's headline operating point
            compresses references ~2601x, i.e. ratio ~36 with 1-byte
            pixels against 2-byte raws).
        reference_max_cloud: Maximum cloud fraction for an image to qualify
            as a reference (§3: 1 %).
        drop_cloud_fraction: Captures cloudier than this are dropped
            on-board entirely (§5: 50 %).
        guaranteed_download_days: Period of the full-image guaranteed
            download (§5: monthly).
        cache_references_onboard: Keep reference images cached on the
            satellite and upload only deltas (§4.3).
        delta_reference_updates: Upload only changed low-res tiles of a new
            reference (requires the on-board cache).
        n_quality_layers: Quality layers per encoded image, for downlink
            adaptation (§5).
        ground_sync_days: Cadence (days) at which the ground segment
            synchronizes constellation-shared state — the shared reference
            mosaic and the guaranteed-download ledger.  0 (the default)
            models an always-synchronized ground segment: every ingest is
            visible to the next visit immediately, the legacy semantics.
            A positive cadence journals ground-state writes within each
            epoch and applies them at epoch boundaries in canonical visit
            order, which makes the simulation shard-count-invariant (the
            basis of ``--shards``); satellites then plan against state
            that is at most one epoch stale, mirroring a ground segment
            whose stations reconcile on a schedule rather than
            instantaneously.
        reference_bytes_per_pixel: Storage bytes per low-res reference pixel
            (uint8 storage = 1).
        raw_bytes_per_pixel: Bytes per full-res raw pixel (12-bit sensor
            packed in 2 bytes).
        codec_backend: ``"model"`` uses the calibrated fast rate model for
            ROI encoding (default; right for parameter sweeps); any other
            value selects the full bit-exact arithmetic-coded codec so
            every downlinked byte is a real bitstream byte, with the
            entropy-coding engine resolved through the codec backend
            registry (``repro.codec.registry``): ``"reference"`` is the
            per-bit coder, ``"vectorized"`` the batched numpy fast path,
            ``"compiled"`` the native-kernel engine (falls back to
            vectorized when no C toolchain is present), and ``"real"``
            picks the best engine available on this machine.  All engines
            are proven byte-identical by the differential test harness,
            so the choice never affects results — only wall time — and
            never enters the experiment-store key.
    """

    tile_size: int = 64
    theta: float = 0.01
    gamma_bpp: float = 0.75
    reference_downsample: int = 8
    reference_max_cloud: float = 0.01
    drop_cloud_fraction: float = 0.5
    guaranteed_download_days: float = 30.0
    cache_references_onboard: bool = True
    delta_reference_updates: bool = True
    n_quality_layers: int = 1
    ground_sync_days: float = 0.0
    reference_bytes_per_pixel: int = 1
    raw_bytes_per_pixel: int = 2
    codec_backend: str = "model"

    def __post_init__(self) -> None:
        if self.tile_size <= 0:
            raise ConfigError(f"tile_size must be positive, got {self.tile_size}")
        if self.theta < 0:
            raise ConfigError(f"theta must be >= 0, got {self.theta}")
        if self.gamma_bpp <= 0:
            raise ConfigError(f"gamma_bpp must be positive, got {self.gamma_bpp}")
        if self.reference_downsample < 1:
            raise ConfigError(
                f"reference_downsample must be >= 1, got {self.reference_downsample}"
            )
        if not 0.0 <= self.reference_max_cloud <= 1.0:
            raise ConfigError(
                f"reference_max_cloud must be in [0,1], got {self.reference_max_cloud}"
            )
        if not 0.0 < self.drop_cloud_fraction <= 1.0:
            raise ConfigError(
                f"drop_cloud_fraction must be in (0,1], got {self.drop_cloud_fraction}"
            )
        if self.guaranteed_download_days <= 0:
            raise ConfigError(
                "guaranteed_download_days must be positive, "
                f"got {self.guaranteed_download_days}"
            )
        if self.n_quality_layers < 1:
            raise ConfigError(
                f"n_quality_layers must be >= 1, got {self.n_quality_layers}"
            )
        if self.ground_sync_days < 0:
            raise ConfigError(
                f"ground_sync_days must be >= 0, got {self.ground_sync_days}"
            )
        if self.delta_reference_updates and not self.cache_references_onboard:
            raise ConfigError(
                "delta_reference_updates requires cache_references_onboard"
            )
        if self.codec_backend not in (
            "model",
            "real",
            "reference",
            "vectorized",
            "compiled",
        ):
            raise ConfigError(
                f"codec_backend must be 'model', 'real', 'reference', "
                f"'vectorized', or 'compiled', got {self.codec_backend!r}"
            )

    def reference_compression_ratio(self) -> float:
        """Raw-to-reference byte ratio achieved by downsampling alone."""
        area = self.reference_downsample * self.reference_downsample
        return area * self.raw_bytes_per_pixel / self.reference_bytes_per_pixel

    def with_overrides(self, **kwargs: object) -> "EarthPlusConfig":
        """Functional update helper (configs are frozen)."""
        from dataclasses import replace

        return replace(self, **kwargs)  # type: ignore[arg-type]
