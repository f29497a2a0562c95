"""The surface kernels against their numpy oracles.

``EarthModel.base_map`` runs one native pass per band and
``EarthModel._compose_surface`` renders every change-cell block missing
from its LRU in one native call.  Their specifications are the numpy
expressions of ``tests/sim_oracle.py`` (``base_map_reference``,
``compose_surface_reference`` and ``cell_block_uncached``); every output
here must equal them byte for byte, whatever the cell shapes and the
cache state.
"""

import numpy as np
import pytest
from sim_oracle import (
    base_map_reference,
    cell_block_uncached,
    compose_surface_reference,
    reference_path,
)

from repro.codec import registry
from repro.imagery.bands import PLANET_BANDS
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.noise import field_plan
from repro.obs.metrics import counters

BAND = PLANET_BANDS[0]


def _model(shape, seed=5, cell=64, classes=None) -> EarthModel:
    mix = {
        terrain: 1.0 + index
        for index, terrain in enumerate(classes or list(TerrainClass))
    }
    spec = LocationSpec(
        name="kernels", shape=shape, terrain_mix=mix, seed=seed,
        change_cell_px=cell,
    )
    return EarthModel(spec, PLANET_BANDS)


def _oracle_surface(model: EarthModel, versions: np.ndarray) -> np.ndarray:
    with reference_path():
        return compose_surface_reference(model, BAND, versions)


def _compose(model: EarthModel, versions: np.ndarray):
    """The composed surface and the block-cache counts it bumped."""
    baseline = counters().snapshot()
    surface = model._compose_surface(BAND, versions)
    delta = counters().diff(baseline)
    return surface, {
        event: delta.get(f"cache.block.{event}")
        for event in ("hit", "miss", "evict")
    }


class TestChangeBlocks:
    @pytest.mark.parametrize("shape", [(96, 96), (100, 130), (64, 64)])
    def test_every_cell_shape_matches_oracle(self, shape):
        # 96x96: 64x64, 64x32, 32x64 and 32x32 cells; 100x130: 64x64,
        # 64x2, 36x64 and 36x2 edge cells; 64x64: one interior cell.
        model = _model(shape)
        tiles_y, tiles_x = model.tiles_shape
        versions = np.arange(1, tiles_y * tiles_x + 1).reshape(
            tiles_y, tiles_x
        )
        surface, counts = _compose(model, versions)
        assert surface.tobytes() == _oracle_surface(model, versions).tobytes()
        assert counts == {"hit": 0, "miss": tiles_y * tiles_x, "evict": 0}
        assert len(model._block_cache) == tiles_y * tiles_x
        with reference_path():
            for (_, ty, tx, version), block in model._block_cache.items():
                expected = cell_block_uncached(model, BAND, ty, tx, version)
                assert block.tobytes() == expected.tobytes()
                assert block.base is None and not block.flags.writeable

    def test_all_hits_mixed_and_all_misses(self):
        model = _model((100, 130), seed=9)
        first = np.array([[1, 0, 2], [0, 3, 0]])
        mixed = np.array([[1, 4, 0], [1, 3, 0]])  # 2 cached, 2 new
        fresh = np.full_like(first, 5)  # none cached
        for versions, expected in (
            (first, {"hit": 0, "miss": 3, "evict": 0}),
            (first, {"hit": 3, "miss": 0, "evict": 0}),
            (mixed, {"hit": 2, "miss": 2, "evict": 0}),
            (fresh, {"hit": 0, "miss": 6, "evict": 0}),
            (np.zeros_like(first), {"hit": 0, "miss": 0, "evict": 0}),
        ):
            surface, counts = _compose(model, versions)
            assert counts == expected
            assert (
                surface.tobytes()
                == _oracle_surface(model, versions).tobytes()
            )
        assert len(model._block_cache) == 11

    def test_batch_larger_than_the_lru(self):
        # 1024 cells of 8x8 miss at once: every block renders and is
        # pasted, and the LRU keeps the last 512.
        model = _model((256, 256), seed=11, cell=8)
        versions = np.ones(model.tiles_shape, dtype=np.int64)
        surface, counts = _compose(model, versions)
        assert counts == {"hit": 0, "miss": 1024, "evict": 512}
        assert surface.tobytes() == _oracle_surface(model, versions).tobytes()
        assert len(model._block_cache) == EarthModel._BLOCK_CACHE_MAX == 512
        assert next(iter(model._block_cache)) == (BAND.name, 16, 0, 1)
        # A second pass hits the kept half, re-renders the other, and
        # keeps the re-rendered half.
        surface, counts = _compose(model, versions)
        assert counts == {"hit": 512, "miss": 512, "evict": 512}
        assert surface.tobytes() == _oracle_surface(model, versions).tobytes()
        assert next(iter(model._block_cache)) == (BAND.name, 0, 0, 1)

    def test_blend_clips_at_both_bounds(self):
        kernels = registry.kernels()
        plans = [field_plan(8, 8, 3, 3), field_plan(8, 4, 3, 3)]
        rng = np.random.default_rng(3)
        base = np.concatenate(
            [np.zeros((8, 12)), np.ones((8, 12))], axis=0
        )
        base[4:12] = rng.random((8, 12))
        sizes = [int(plan.offsets[-1]) for plan in plans]
        cells = [(0, 0, 0, 0), (1, sizes[0], 8, 8), (0, 0, 4, 2)]
        lattices = rng.random(sizes[0] + sizes[1])
        amplitudes = np.array([0.3, 0.25, 0.1])
        blocks = kernels.change_blocks(
            lattices, plans, cells, amplitudes, base
        )
        for (kind, start, top, left), amplitude, block in zip(
            cells, amplitudes, blocks
        ):
            height, width = plans[kind].shape
            patch = kernels.fractal_field(
                lattices[start:],
                plans[kind].offsets[:-1],
                plans[kind].cols,
                plans[kind].rows,
                plans[kind].columns,
                plans[kind].amplitudes,
                plans[kind].amplitude_sum,
                (height, width),
            )
            under = base[top : top + height, left : left + width]
            expected = np.clip(under + amplitude * (patch - 0.5), 0.0, 1.0)
            assert block.tobytes() == expected.tobytes()
        assert blocks[0].min() == 0.0 and blocks[1].max() == 1.0

    @pytest.mark.parametrize(
        "cell",
        [(2, 0, 0, 0), (0, -1, 0, 0), (0, 10_000, 0, 0), (0, 0, 5, 0),
         (0, 0, 0, -1)],
    )
    def test_rejects_cells_past_their_buffers(self, cell):
        plans = [field_plan(8, 8, 3, 3)]
        with pytest.raises(ValueError, match="change_blocks"):
            registry.kernels().change_blocks(
                np.zeros(int(plans[0].offsets[-1])),
                plans,
                [cell],
                np.ones(1),
                np.zeros((12, 12)),
            )

    def test_rejects_plans_with_other_amplitudes(self):
        plans = [field_plan(8, 8, 3, 3), field_plan(8, 8, 4, 3)]
        with pytest.raises(ValueError, match="amplitudes"):
            registry.kernels().change_blocks(
                np.zeros(1000), plans, [(0, 0, 0, 0)], np.ones(1),
                np.zeros((8, 8)),
            )


class TestBaseMap:
    @pytest.mark.parametrize("n_classes", range(1, 7))
    def test_matches_oracle(self, n_classes):
        model = _model(
            (100, 130), seed=20 + n_classes,
            classes=list(TerrainClass)[:n_classes],
        )
        assert len(np.unique(model.class_map())) == n_classes
        for band in PLANET_BANDS:
            with reference_path():
                expected = base_map_reference(model, band.name)
            assert model.base_map(band.name).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_classes", range(1, 7))
    def test_clips_at_both_bounds(self, n_classes):
        rng = np.random.default_rng(n_classes)
        texture = rng.random((64, 96))
        texture[0, :3] = (0.0, 1.0, 0.5)
        classes = rng.integers(0, n_classes, texture.shape, dtype=np.int8)
        # Every class reaches below 0 and above 1.
        reflectance = np.linspace(0.3, 0.7, n_classes)
        amplitude = np.linspace(0.8, 0.6, n_classes)
        expected = np.clip(
            reflectance[classes]
            + amplitude[classes] * (texture - 0.5) * 2.0,
            0.0,
            1.0,
        )
        out = registry.kernels().base_map(
            texture, classes, reflectance, amplitude
        )
        assert out is texture
        assert out.tobytes() == expected.tobytes()
        assert (out == 0.0).any() and (out == 1.0).any()

    def test_rejects_classes_past_the_tables(self):
        classes = np.zeros((4, 4), dtype=np.int8)
        classes[2, 2] = 3
        with pytest.raises(ValueError, match="3 classes"):
            registry.kernels().base_map(
                np.zeros((4, 4)), classes, np.ones(3), np.ones(3)
            )
