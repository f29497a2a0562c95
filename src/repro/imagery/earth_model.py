"""Procedural Earth-surface model: the ground truth that satellites observe.

The model answers one question deterministically: *what does location L look
like in band B at time t?*  Its construction mirrors the content statistics
the paper measures:

* a static **base map** per (location, band): a terrain-class map (river,
  forest, mountain, agriculture, city, coastal) rendered with per-class,
  per-band reflectances plus fractal texture;
* a **change process** (:class:`repro.imagery.events.TileChangeModel`): tiles
  receive new content at Gamma-Poisson jump times, calibrated so the changed
  fraction vs. reference age reproduces the paper's Figure 4;
* **snow dynamics** at snowy locations: a seasonal snow line whose albedo
  fluctuates capture-to-capture, which is exactly why the paper's locations
  D and H defeat reference-based encoding (Figure 14).

The model also exposes the *oracle* change grid (`true_changed_tiles`) that
evaluation code uses to score detection accuracy (Figure 8) without the model
under test being able to see it.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ImageryError
from repro.imagery.bands import Band, BandCategory
from repro.imagery.events import TileChangeModel
from repro.imagery.noise import fractal_noise, stable_hash


class TerrainClass(enum.Enum):
    """Land-cover classes used to synthesize location content (Figure 10)."""

    RIVER = "river"
    FOREST = "forest"
    MOUNTAIN = "mountain"
    AGRICULTURE = "agriculture"
    CITY = "city"
    COASTAL = "coastal"


#: Base reflectance of each terrain class per band category, in [0, 1].
#: Rough magnitudes follow remote-sensing intuition: water is dark everywhere,
#: vegetation is bright in NIR/red-edge, cities are bright in visible, etc.
_CLASS_REFLECTANCE: dict[TerrainClass, dict[BandCategory, float]] = {
    TerrainClass.RIVER: {
        BandCategory.GROUND: 0.08,
        BandCategory.VEGETATION: 0.05,
        BandCategory.AIR: 0.12,
        BandCategory.INFRARED: 0.03,
    },
    TerrainClass.FOREST: {
        BandCategory.GROUND: 0.18,
        BandCategory.VEGETATION: 0.55,
        BandCategory.AIR: 0.15,
        BandCategory.INFRARED: 0.25,
    },
    TerrainClass.MOUNTAIN: {
        BandCategory.GROUND: 0.35,
        BandCategory.VEGETATION: 0.30,
        BandCategory.AIR: 0.18,
        BandCategory.INFRARED: 0.40,
    },
    TerrainClass.AGRICULTURE: {
        BandCategory.GROUND: 0.30,
        BandCategory.VEGETATION: 0.60,
        BandCategory.AIR: 0.16,
        BandCategory.INFRARED: 0.35,
    },
    TerrainClass.CITY: {
        BandCategory.GROUND: 0.45,
        BandCategory.VEGETATION: 0.25,
        BandCategory.AIR: 0.20,
        BandCategory.INFRARED: 0.50,
    },
    TerrainClass.COASTAL: {
        BandCategory.GROUND: 0.22,
        BandCategory.VEGETATION: 0.20,
        BandCategory.AIR: 0.14,
        BandCategory.INFRARED: 0.18,
    },
}

#: Texture amplitude per terrain class (cities are busier than water).
_CLASS_TEXTURE: dict[TerrainClass, float] = {
    TerrainClass.RIVER: 0.02,
    TerrainClass.FOREST: 0.08,
    TerrainClass.MOUNTAIN: 0.14,
    TerrainClass.AGRICULTURE: 0.10,
    TerrainClass.CITY: 0.16,
    TerrainClass.COASTAL: 0.06,
}


@dataclass(frozen=True)
class LocationSpec:
    """Configuration of one simulated geographic location.

    Attributes:
        name: Location identifier (the paper uses letters A-K for Sentinel-2).
        shape: Image shape ``(height, width)`` in pixels at native GSD.
        terrain_mix: Relative weight of each terrain class present.
        seed: Seed controlling all content at this location.
        snowy: Whether the location has a seasonal snow pack whose albedo
            volatility defeats reference-based encoding (paper's D and H).
        activity: Multiplier on the base change rate (cities churn faster
            than wilderness).
        change_cell_px: Edge of the square change-process cell in pixels;
            defaults to 64 to match the paper's tile size.
    """

    name: str
    shape: tuple[int, int] = (256, 256)
    terrain_mix: dict[TerrainClass, float] = field(
        default_factory=lambda: {TerrainClass.FOREST: 1.0}
    )
    seed: int = 0
    snowy: bool = False
    activity: float = 1.0
    change_cell_px: int = 64

    def __post_init__(self) -> None:
        height, width = self.shape
        if height <= 0 or width <= 0:
            raise ImageryError(f"location shape must be positive, got {self.shape}")
        if not self.terrain_mix:
            raise ImageryError("terrain_mix must contain at least one class")
        if any(w < 0 for w in self.terrain_mix.values()):
            raise ImageryError("terrain_mix weights must be non-negative")
        if sum(self.terrain_mix.values()) <= 0:
            raise ImageryError("terrain_mix weights must sum to a positive value")
        if self.change_cell_px <= 0:
            raise ImageryError("change_cell_px must be positive")


def _snow_season_depth(day_of_year: float) -> float:
    """Seasonal snow-pack depth factor in [0, 1], peaking mid-winter.

    Northern-hemisphere winter/spring snow: nonzero roughly November-May,
    peaking around mid-January (day ~15).
    """
    # Cosine bump centred at day 15 with half-width ~105 days.
    phase = math.cos(2.0 * math.pi * (day_of_year - 15.0) / 365.0)
    return max(0.0, (phase - 0.15) / 0.85)


class EarthModel:
    """Deterministic ground-truth imagery for one location.

    Args:
        spec: The location configuration.
        bands: Bands this model can render.

    The heavy per-band static structure (class map, base reflectance, texture)
    is computed lazily and cached, so repeated captures of the same location
    cost only the change-version query plus pasting cached change-cell
    blocks.
    """

    def __init__(self, spec: LocationSpec, bands: tuple[Band, ...]) -> None:
        self.spec = spec
        self.bands = bands
        self._band_index = {band.name: band for band in bands}
        height, width = spec.shape
        cell = spec.change_cell_px
        self.tiles_shape = (
            (height + cell - 1) // cell,
            (width + cell - 1) // cell,
        )
        self._base_cache: dict[str, np.ndarray] = {}
        self._change_models: dict[str, TileChangeModel] = {}
        self._class_map_cache: np.ndarray | None = None
        self._elevation_cache: np.ndarray | None = None
        # Warm-state caches (see ground_truth).  Composed pre-snow surfaces
        # are keyed by the change-version grid, blended change-cell blocks
        # by (band, cell, version) — both pure functions of their keys.
        self._surface_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._block_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._snow_texture_cache: dict[str, np.ndarray] = {}

    #: Bound on cached composed surfaces per model (LRU).  Consecutive
    #: captures usually share a version grid, so a handful of entries
    #: already absorbs nearly all recomposition.
    _SURFACE_CACHE_MAX = 24
    #: Bound on cached blended change-cell blocks per model (LRU).
    _BLOCK_CACHE_MAX = 512

    def __getstate__(self):
        """Pickle without warm-state caches (worker tasks start cold)."""
        state = dict(self.__dict__)
        state["_surface_cache"] = OrderedDict()
        state["_block_cache"] = OrderedDict()
        state["_snow_texture_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    def class_map(self) -> np.ndarray:
        """Integer terrain-class map of shape ``spec.shape``.

        Classes are assigned by thresholding a smooth noise field according
        to the location's terrain-mix weights, which yields spatially
        contiguous regions rather than salt-and-pepper classes.
        """
        if self._class_map_cache is not None:
            return self._class_map_cache
        spec = self.spec
        field_noise = fractal_noise(
            spec.shape, stable_hash(spec.seed, "classmap"), octaves=3, base_cells=3
        )
        classes = sorted(spec.terrain_mix, key=lambda c: c.value)
        weights = np.array([spec.terrain_mix[c] for c in classes], dtype=np.float64)
        cum = np.cumsum(weights) / weights.sum()
        class_map = np.zeros(spec.shape, dtype=np.int8)
        lower = 0.0
        for idx, upper in enumerate(cum):
            mask = (field_noise >= lower) & (field_noise <= upper + 1e-12)
            class_map[mask] = idx
            lower = upper
        self._class_map_cache = class_map
        self._class_list = classes
        return class_map

    def elevation(self) -> np.ndarray:
        """Pseudo-elevation field in [0, 1]; drives the snow line."""
        if self._elevation_cache is None:
            self._elevation_cache = fractal_noise(
                self.spec.shape,
                stable_hash(self.spec.seed, "elevation"),
                octaves=4,
                base_cells=2,
            )
        return self._elevation_cache

    def base_map(self, band_name: str) -> np.ndarray:
        """Static (time-zero) surface for ``band_name``, values in [0, 1]."""
        if band_name in self._base_cache:
            return self._base_cache[band_name]
        band = self._get_band(band_name)
        class_map = self.class_map()
        classes = self._class_list
        reflectance = np.array(
            [_CLASS_REFLECTANCE[terrain][band.category] for terrain in classes]
        )
        amplitude = np.array([_CLASS_TEXTURE[terrain] for terrain in classes])
        base = reflectance[class_map]
        texture_amp = amplitude[class_map]
        texture = fractal_noise(
            self.spec.shape,
            stable_hash(self.spec.seed, "texture", band.name),
            octaves=5,
            base_cells=6,
        )
        surface = np.clip(base + texture_amp * (texture - 0.5) * 2.0, 0.0, 1.0)
        self._base_cache[band_name] = surface
        return surface

    # ------------------------------------------------------------------
    # Temporal dynamics
    # ------------------------------------------------------------------
    def change_model(self, band_name: str) -> TileChangeModel:
        """The Gamma-Poisson change process for ``band_name``."""
        if band_name not in self._change_models:
            band = self._get_band(band_name)
            self._change_models[band_name] = TileChangeModel(
                tiles_shape=self.tiles_shape,
                seed=stable_hash(self.spec.seed, "changes", band.name),
                rate_multiplier=band.change_rate_scale * self.spec.activity,
            )
        return self._change_models[band_name]

    def snow_mask(self, t_days: float) -> np.ndarray:
        """Boolean snow-cover mask at time ``t_days`` (all-False if not snowy)."""
        if not self.spec.snowy:
            return np.zeros(self.spec.shape, dtype=bool)
        depth = _snow_season_depth(t_days % 365.0)
        if depth <= 0.0:
            return np.zeros(self.spec.shape, dtype=bool)
        # Deeper season -> snow line descends to lower elevations.
        threshold = 1.0 - 0.75 * depth
        return self.elevation() >= threshold

    def _snow_albedo(self, t_days: float) -> float:
        """Per-day snow albedo; fluctuates because snow ages and dirties."""
        day = int(math.floor(t_days))
        rng = np.random.default_rng(stable_hash(self.spec.seed, "albedo", day))
        return 0.60 + 0.35 * float(rng.random())

    def ground_truth(self, band_name: str, t_days: float) -> np.ndarray:
        """The true surface for ``band_name`` at ``t_days`` (values in [0,1]).

        Composition order: static base map, then content-change patches (one
        re-synthesized patch per change event), then snow cover.

        Args:
            band_name: Which spectral band to render.
            t_days: Days since the model epoch (>= 0).

        Returns:
            float64 array of shape ``spec.shape``.
        """
        if t_days < 0:
            raise ImageryError(f"t_days must be >= 0, got {t_days}")
        band = self._get_band(band_name)
        versions = self.change_model(band_name).version_grid(t_days)
        # Warm state: the pre-snow composition is a pure function of the
        # change-version grid, which only moves at jump times — consecutive
        # captures (and repeated scenario runs over the same dataset) hit
        # the cache instead of re-blending every historical change patch.
        key = (band.name, versions.tobytes())
        cached = self._surface_cache.get(key)
        if cached is None:
            cached = self._compose_surface(band, versions)
            cached.setflags(write=False)
            self._surface_cache[key] = cached
            while len(self._surface_cache) > self._SURFACE_CACHE_MAX:
                self._surface_cache.popitem(last=False)
        else:
            self._surface_cache.move_to_end(key)
        surface = cached.copy()
        snow = self.snow_mask(t_days)
        if snow.any():
            albedo = self._snow_albedo(t_days)
            snow_texture = self._snow_texture(band.name)
            snow_value = np.clip(albedo * (0.85 + 0.3 * (snow_texture - 0.5)), 0.0, 1.0)
            surface[snow] = snow_value[snow]
        return surface

    def _compose_surface(self, band: Band, versions: np.ndarray) -> np.ndarray:
        """Base map with every changed cell's block pasted in (no snow)."""
        surface = self.base_map(band.name).copy()
        cell = self.spec.change_cell_px
        for ty, row in enumerate(versions.tolist()):
            for tx, version in enumerate(row):
                if version:
                    block = self._cell_block(band, ty, tx, version)
                    height, width = block.shape
                    y0, x0 = ty * cell, tx * cell
                    surface[y0 : y0 + height, x0 : x0 + width] = block
        return surface

    def _cell_block(
        self, band: Band, ty: int, tx: int, version: int
    ) -> np.ndarray:
        """Change cell ``(ty, tx)`` of ``band`` at content ``version`` >= 1.

        The base map under the cell plus the version's change patch,
        clipped to [0, 1].  Terrestrial change perturbs content around
        its local value (harvest, construction, flooding) — it does not
        replace a tile with unrelated imagery.  Amplitudes are chosen so
        a changed tile's mean absolute difference (~0.03-0.08) clears
        the paper's theta = 0.01 decisively while leaving global image
        statistics (and thus the illumination fit) intact.

        Cells never overlap, so the block is a pure function of ``(band,
        ty, tx, version)``; memoized (LRU, ``_BLOCK_CACHE_MAX``) so
        recomposition after a new change event pastes every older cell's
        block instead of re-rendering and re-blending it.  Returned
        blocks are read-only.
        """
        key = (band.name, ty, tx, version)
        cached = self._block_cache.get(key)
        if cached is not None:
            self._block_cache.move_to_end(key)
            return cached
        cell = self.spec.change_cell_px
        height, width = self.spec.shape
        y0, x0 = ty * cell, tx * cell
        y1, x1 = min(y0 + cell, height), min(x0 + cell, width)
        patch_seed = stable_hash(
            self.spec.seed, "patch", band.name, ty, tx, version
        )
        patch = fractal_noise(
            (y1 - y0, x1 - x0), patch_seed, octaves=3, base_cells=3
        )
        amplitude = 0.10 + 0.20 * np.random.default_rng(patch_seed).random()
        under = self.base_map(band.name)[y0:y1, x0:x1]
        block = np.clip(under + amplitude * (patch - 0.5), 0.0, 1.0)
        block.setflags(write=False)
        self._block_cache[key] = block
        while len(self._block_cache) > self._BLOCK_CACHE_MAX:
            self._block_cache.popitem(last=False)
        return block

    def _snow_texture(self, band_name: str) -> np.ndarray:
        """Static per-band snow texture (pure function of seeds), cached."""
        cached = self._snow_texture_cache.get(band_name)
        if cached is None:
            cached = fractal_noise(
                self.spec.shape,
                stable_hash(self.spec.seed, "snowtex", band_name),
                octaves=3,
                base_cells=8,
            )
            cached.setflags(write=False)
            self._snow_texture_cache[band_name] = cached
        return cached

    def true_changed_tiles(
        self, band_name: str, t0_days: float, t1_days: float
    ) -> np.ndarray:
        """Oracle: which change cells genuinely differ between two times.

        A cell counts as changed if the Gamma-Poisson process fired in the
        interval or if snow cover/albedo differs between the two times (snow
        is a real content change — the paper's snowy locations download those
        tiles every visit).

        Args:
            band_name: Band to query.
            t0_days: Reference time.
            t1_days: Capture time (>= t0_days).

        Returns:
            Boolean array of shape ``tiles_shape``.
        """
        changed = self.change_model(band_name).changed_between(t0_days, t1_days)
        if self.spec.snowy:
            snow0 = self.snow_mask(t0_days)
            snow1 = self.snow_mask(t1_days)
            snow_pixels = snow0 | snow1
            if snow_pixels.any() and (
                int(math.floor(t0_days)) != int(math.floor(t1_days))
                or not np.array_equal(snow0, snow1)
            ):
                changed = changed | self._any_pixel_per_cell(snow_pixels)
        return changed

    def _any_pixel_per_cell(self, pixel_mask: np.ndarray) -> np.ndarray:
        """Reduce a pixel mask to a per-change-cell any() grid."""
        cell = self.spec.change_cell_px
        tiles_y, tiles_x = self.tiles_shape
        out = np.zeros(self.tiles_shape, dtype=bool)
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                block = pixel_mask[
                    ty * cell : (ty + 1) * cell, tx * cell : (tx + 1) * cell
                ]
                out[ty, tx] = bool(block.any())
        return out

    def _get_band(self, band_name: str) -> Band:
        try:
            return self._band_index[band_name]
        except KeyError:
            known = ", ".join(sorted(self._band_index))
            raise ImageryError(
                f"band {band_name!r} not configured for location "
                f"{self.spec.name!r}; available: {known}"
            ) from None
