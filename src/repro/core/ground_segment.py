"""The Earth+ ground segment (§4.2): mosaic, scoring, and upload planning.

The ground stations are Earth+'s "overlay point": they see everything every
satellite downloads, so they can (a) maintain the freshest cloud-free view
of each location (the :class:`~repro.core.reference.GroundMosaic`), (b)
re-screen downloads with the accurate cloud detector before content becomes
reference material, and (c) plan which reference updates to uplink to which
satellite within the per-contact uplink budget, skipping a random subset
when the budget falls short (§5, "Handling bandwidth fluctuation").

The mosaic is stored in an illumination-*normalized* space: each downloaded
tile is mapped through the inverse of its capture's fitted illumination, so
tiles downloaded weeks apart compose into one consistent reference — this is
what makes a single (gain, offset) pair per capture sufficient on board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.codec.metrics import psnr as psnr_metric
from repro.core.change_detection import align_illumination
from repro.core.cloud import CloudDetector
from repro.core.config import EarthPlusConfig
from repro.core.encoder import CaptureEncodeResult
from repro.core.reference import (
    GroundMosaic,
    OnboardReferenceCache,
    ReferenceUpdate,
)
from repro.core.tiles import TileGrid
from repro.errors import PipelineError
from repro.imagery.bands import Band
from repro.imagery.noise import stable_hash
from repro.imagery.sensor import Capture


@dataclass
class ScoreRecord:
    """Ground-side quality assessment of one capture's reconstruction.

    Attributes:
        psnr: PSNR of the ground's reconstruction vs. the true capture,
            over non-cloudy pixels.  The sentinel 0.0 means the capture
            had no scoreable pixels at all (every tile cloudy); real
            captures of [0, 1] imagery always score strictly above 0 dB,
            and the run-level aggregates exclude the sentinel.
        downloaded_tile_fraction: Fraction of tiles downloaded (mean over
            bands; 0.0 for band-less results).
        bytes_downlinked: Total downlink bytes for the capture.
    """

    psnr: float
    downloaded_tile_fraction: float
    bytes_downlinked: int


@dataclass
class UplinkPlan:
    """Outcome of one upload-planning round for one satellite.

    Attributes:
        updates: Updates that fit the budget (already applied to the cache).
        bytes_used: Uplink bytes consumed.
        skipped: Number of (location, band) updates skipped for lack of
            budget.
    """

    updates: list[ReferenceUpdate] = field(default_factory=list)
    bytes_used: int = 0
    skipped: int = 0


@dataclass
class UplinkStats:
    """Running update-level uplink accounting across a whole run.

    Every field is a plain count, so the class is a commutative monoid
    under field-wise addition: :meth:`identity` is the empty run,
    :meth:`merge` combines per-shard partials, and
    :meth:`from_run_stats`/:meth:`as_run_stats` round-trip losslessly
    through the dict carried on ``RunResult.uplink_stats`` — workers can
    finalize independently and the driver merges the dicts exactly.

    Attributes:
        bytes_sent: Total reference-update bytes moved up.
        updates_sent: Updates applied to satellite caches.
        updates_skipped: Updates skipped for lack of uplink budget.
        full_update_bytes: Bytes of full (non-delta) updates.
        full_update_count: Number of full updates.
        delta_update_bytes: Bytes of delta updates.
        delta_update_count: Number of delta updates.
    """

    bytes_sent: int = 0
    updates_sent: int = 0
    updates_skipped: int = 0
    full_update_bytes: int = 0
    full_update_count: int = 0
    delta_update_bytes: int = 0
    delta_update_count: int = 0

    @classmethod
    def identity(cls) -> "UplinkStats":
        """The merge identity: the stats of a run that moved nothing."""
        return cls()

    @classmethod
    def from_run_stats(cls, stats: dict[str, int]) -> "UplinkStats":
        """Rebuild from the ``RunResult.uplink_stats`` dict."""
        return cls(**stats)

    def merge(self, other: "UplinkStats") -> "UplinkStats":
        """Field-wise sum (associative, commutative, identity-respecting)."""
        return UplinkStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in dataclass_fields(self)
            }
        )

    def record_sent(self, update: ReferenceUpdate, cost: int) -> None:
        """Account one applied update."""
        self.updates_sent += 1
        if update.full:
            self.full_update_bytes += cost
            self.full_update_count += 1
        else:
            self.delta_update_bytes += cost
            self.delta_update_count += 1

    def as_run_stats(self) -> dict[str, int]:
        """The update-level dict carried on ``RunResult.uplink_stats``."""
        return {
            "bytes_sent": self.bytes_sent,
            "updates_sent": self.updates_sent,
            "updates_skipped": self.updates_skipped,
            "full_update_bytes": self.full_update_bytes,
            "full_update_count": self.full_update_count,
            "delta_update_bytes": self.delta_update_bytes,
            "delta_update_count": self.delta_update_count,
        }


class GroundSegment:
    """Ground-station logic shared by every satellite of the constellation.

    Args:
        config: Earth+ tunables.
        bands: Constellation band set.
        image_shape: Capture pixel shape.
        ground_detector: The accurate (expensive) cloud detector.
        seed: Seed for the random skipping of updates under uplink pressure.
    """

    def __init__(
        self,
        config: EarthPlusConfig,
        bands: tuple[Band, ...],
        image_shape: tuple[int, int],
        ground_detector: CloudDetector | None,
        seed: int = 0,
        expected_gain=None,
        basis_gain: float = 0.9,
    ) -> None:
        self.config = config
        self.bands = bands
        self.image_shape = image_shape
        self.ground_detector = ground_detector
        self.grid = TileGrid(image_shape, config.tile_size)
        self.mosaic = GroundMosaic(image_shape, config.tile_size)
        self.seed = seed
        if expected_gain is None:
            from repro.imagery.illumination import IlluminationModel

            expected_gain = IlluminationModel(seed=0).expected_gain
        #: Callable t_days -> deterministic illumination gain (known from
        #: acquisition geometry); used to anchor mosaic normalization.
        self.expected_gain = expected_gain
        #: The absolute gain the mosaic basis is expressed in.
        self.basis_gain = basis_gain
        self._plan_counter = 0
        self._plan_counters: dict[int, int] = {}
        self._journal = None
        self.stats = UplinkStats()

    def enable_sync_journal(self, journal) -> None:
        """Switch to epoch-synchronized mode (see :mod:`repro.core.sharding`).

        Mosaic writes are journaled into ``journal`` instead of applied,
        reads keep seeing the mosaic as of the last synchronization, and
        the uplink-skip RNG switches from the global plan counter to
        per-satellite streams (a global counter would depend on the
        interleaving of satellites across shards).
        """
        self._journal = journal

    def apply_ingests(self, entries) -> None:
        """Apply merged journal entries to the mosaic, in the given order.

        Called at epoch boundaries with the canonically-sorted union of
        every shard's journal; every shard applies the same sequence, so
        all mosaic replicas stay identical.
        """
        for entry in entries:
            self.mosaic.ingest_tiles(
                entry.location,
                entry.band,
                entry.t_days,
                entry.image,
                entry.tile_mask,
                pixel_valid=entry.pixel_valid,
            )

    @property
    def uplink_bytes_total(self) -> int:
        """Total reference-update bytes sent (see :class:`UplinkStats`)."""
        return self.stats.bytes_sent

    @property
    def updates_skipped_total(self) -> int:
        """Total updates skipped under budget pressure."""
        return self.stats.updates_skipped

    # ------------------------------------------------------------------
    # Ingest + scoring
    # ------------------------------------------------------------------
    def ingest(
        self, result: CaptureEncodeResult, capture: Capture
    ) -> ScoreRecord | None:
        """Fold a downlinked capture into the mosaic and score it.

        Args:
            result: The on-board pipeline's output (carries decoded
                reconstructions; byte accounting already done on board).
            capture: The true capture — used only for scoring, mirroring
                an evaluation harness that keeps raw ground truth.

        Returns:
            A :class:`ScoreRecord`, or None for dropped captures.
        """
        if result.dropped:
            return None
        psnrs: list[float] = []
        downloaded_fractions: list[float] = []
        # Ground re-screens downloads with the accurate detector once per
        # capture (clouds are shared across bands): pixels it deems cloudy
        # never enter the mosaic, even when the on-board detector missed
        # them — this is what keeps reference content cloud-free (§4.3).
        ground_cloud_px = np.zeros(self.grid.image_shape, dtype=bool)
        if self.ground_detector is not None:
            ground_cloud_px = self.ground_detector.detect(
                capture.pixels, capture.bands, self.grid
            )
        for band_result in result.bands:
            band = band_result.band
            truth = capture.pixels[band]
            downloaded = band_result.downloaded_tiles
            cloud_tiles = band_result.cloudy_tiles
            # Reconstruction the ground believes: downloaded tiles from the
            # codec output, everything else from the aligned mosaic.
            estimate = self._ground_estimate(
                capture.location, band, band_result, downloaded
            )
            # Quality is scored over the usable (non-cloud) content: pixels
            # the on-board pipeline zeroed as cloud are excluded, as are
            # whole tiles removed as cloudy.
            valid = ~self.grid.expand(cloud_tiles)
            if band_result.cloudy_pixels is not None:
                valid &= ~band_result.cloudy_pixels
            if valid.any():
                psnrs.append(psnr_metric(truth[valid], estimate[valid]))
            downloaded_fractions.append(float(downloaded.mean()))
            # Normalize downloaded content before it becomes reference
            # material, so mosaic tiles from different days compose; only
            # pixels clear in BOTH detectors' views are written.
            if downloaded.any():
                pixel_valid = ~ground_cloud_px
                if band_result.cloudy_pixels is not None:
                    pixel_valid &= ~band_result.cloudy_pixels
                normalized = self._normalize_to_mosaic_basis(
                    band_result.reconstruction, result.t_days
                )
                if self._journal is not None:
                    from repro.core.sharding import MosaicIngest

                    self._journal.add_ingest(
                        MosaicIngest(
                            t_days=result.t_days,
                            location=capture.location,
                            satellite_id=capture.satellite_id,
                            band=band,
                            image=normalized,
                            tile_mask=downloaded,
                            pixel_valid=pixel_valid,
                        )
                    )
                else:
                    self.mosaic.ingest_tiles(
                        capture.location,
                        band,
                        result.t_days,
                        normalized,
                        downloaded,
                        pixel_valid=pixel_valid,
                    )
        # Degenerate captures score as finite sentinels, never inf/NaN: a
        # fully-cloudy capture has no scoreable pixels (psnr 0.0) and a
        # band-less result would otherwise hit np.mean([]) (NaN plus a
        # RuntimeWarning) — sentinels keep aggregation warning-free.
        mean_psnr = float(np.mean(psnrs)) if psnrs else 0.0
        return ScoreRecord(
            psnr=mean_psnr,
            downloaded_tile_fraction=(
                float(np.mean(downloaded_fractions))
                if downloaded_fractions
                else 0.0
            ),
            bytes_downlinked=result.total_bytes,
        )

    def _normalize_to_mosaic_basis(
        self, reconstruction: np.ndarray, t_days: float
    ) -> np.ndarray:
        """Map fresh content into the mosaic's absolute radiometric basis.

        Ground segments know acquisition geometry exactly, so the
        deterministic (sun-elevation) component of illumination is divided
        out — the standard top-of-atmosphere correction every L1C-style
        product applies.  This anchors all mosaic content to one absolute
        basis with *no fitted feedback loop*: only the small unpredictable
        atmospheric jitter remains as per-ingest noise, and it cannot
        compound.  (Fitting the normalization against mosaic content was
        rejected: regression on genuinely-changed tiles is
        attenuation-biased and the bias compounds across ingests.)
        """
        expected = self.expected_gain(t_days)
        if expected <= 1e-9:
            return np.clip(reconstruction, 0.0, 1.0)
        return np.clip(
            reconstruction * (self.basis_gain / expected), 0.0, 1.0
        )

    def _ground_estimate(
        self,
        location: str,
        band: str,
        band_result,
        downloaded: np.ndarray,
    ) -> np.ndarray:
        """Ground reconstruction: codec output + illumination-aligned mosaic."""
        if self.mosaic.has(location, band):
            base = self.mosaic.image(location, band)
            estimate = np.clip(
                base * band_result.gain + band_result.offset, 0.0, 1.0
            )
        else:
            estimate = np.zeros(self.image_shape, dtype=np.float64)
        if downloaded.any():
            mask = self.grid.expand(downloaded)
            estimate = np.where(mask, band_result.reconstruction, estimate)
        return estimate

    # ------------------------------------------------------------------
    # Upload planning
    # ------------------------------------------------------------------
    def plan_uploads(
        self,
        cache: OnboardReferenceCache,
        locations: list[str],
        now_days: float,
        uplink_budget_bytes: int,
        satellite_id: int | None = None,
    ) -> UplinkPlan:
        """Build and apply reference updates for one satellite's contact.

        Updates are built per (location, band) wherever the mosaic holds
        fresher content than the satellite's cache.  When the budget cannot
        carry all of them, a random subset is skipped — the cached (older)
        references keep working at a small downlink cost, exactly the
        paper's degradation mode.

        Args:
            cache: The target satellite's reference cache (mutated).
            locations: Locations the satellite will overfly before its next
                contact.
            now_days: Contact time.
            uplink_budget_bytes: Bytes available on this contact's uplink.
            satellite_id: The planning satellite.  In epoch-synchronized
                mode the random-skip stream is keyed per satellite (a
                global counter would observe the cross-satellite
                interleaving, which sharding changes); the legacy mode
                keeps the historical global-counter stream so
                ``ground_sync_days = 0`` results are byte-unchanged.

        Returns:
            The applied plan with byte accounting.
        """
        if uplink_budget_bytes < 0:
            raise PipelineError(
                f"uplink budget must be >= 0, got {uplink_budget_bytes}"
            )
        candidates: list[ReferenceUpdate] = []
        for location in locations:
            for band in self.bands:
                if not self.mosaic.has(location, band.name):
                    continue
                reference_lr, validity = self.mosaic.low_res_reference(
                    location, band.name, self.config.reference_downsample
                )
                update = cache.build_update(
                    location,
                    band.name,
                    now_days,
                    reference_lr,
                    validity=validity,
                    delta=self.config.delta_reference_updates,
                )
                if update is not None:
                    candidates.append(update)
        # Randomized skipping under budget pressure (deterministic stream).
        if self._journal is not None:
            if satellite_id is None:
                raise PipelineError(
                    "plan_uploads requires satellite_id in "
                    "epoch-synchronized mode"
                )
            counter = self._plan_counters.get(satellite_id, 0)
            self._plan_counters[satellite_id] = counter + 1
            rng = np.random.default_rng(
                stable_hash(
                    self.seed, "uplink-skip-sat", satellite_id, counter
                )
            )
        else:
            rng = np.random.default_rng(
                stable_hash(self.seed, "uplink-skip", self._plan_counter)
            )
            self._plan_counter += 1
        order = rng.permutation(len(candidates))
        plan = UplinkPlan()
        for idx in order:
            update = candidates[int(idx)]
            cost = update.n_bytes
            if plan.bytes_used + cost > uplink_budget_bytes:
                plan.skipped += 1
                continue
            cache.apply_update(update)
            plan.updates.append(update)
            plan.bytes_used += cost
            self.stats.record_sent(update, cost)
        self.stats.bytes_sent += plan.bytes_used
        self.stats.updates_skipped += plan.skipped
        return plan
