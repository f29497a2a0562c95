"""Unit tests for the decision-tree cloud detectors."""

import gc
import weakref

import pickle

import numpy as np
import pytest
from sim_oracle import best_split_reference, reference_path

from repro.core import cloud
from repro.core.cloud import (
    DecisionTree,
    _training_captures,
    cloud_features,
    evaluate_detector,
    train_ground_detector,
    train_onboard_detector,
)
from repro.core.tiles import TileGrid
from repro.errors import PipelineError
from repro.imagery.bands import get_band
from repro.imagery.earth_model import EarthModel
from repro.obs.metrics import counters


class TestDecisionTree:
    def test_learns_simple_threshold(self, rng):
        x = rng.random((400, 1))
        y = x[:, 0] > 0.5
        tree = DecisionTree(max_depth=2).fit(x, y)
        preds = tree.predict(np.array([[0.1], [0.9]]))
        assert not preds[0] and preds[1]

    def test_learns_2d_rule(self, rng):
        x = rng.random((600, 2))
        y = (x[:, 0] > 0.5) & (x[:, 1] > 0.5)
        tree = DecisionTree(max_depth=3).fit(x, y)
        grid = np.array([[0.9, 0.9], [0.9, 0.1], [0.1, 0.9], [0.1, 0.1]])
        preds = tree.predict(grid)
        assert list(preds) == [True, False, False, False]

    def test_min_confidence_biases_precision(self, rng):
        x = rng.random((500, 1))
        noise = rng.random(500) < 0.15
        y = (x[:, 0] > 0.5) ^ noise  # noisy labels
        tree = DecisionTree(max_depth=2, min_leaf=20).fit(x, y)
        lenient = tree.predict(x, min_confidence=0.5).sum()
        strict = tree.predict(x, min_confidence=0.98).sum()
        assert strict <= lenient

    def test_pure_labels_single_leaf(self):
        x = np.zeros((50, 1))
        y = np.ones(50, dtype=bool)
        tree = DecisionTree().fit(x, y)
        assert tree.depth() == 0
        assert tree.predict(np.zeros((1, 1)))[0]

    def test_depth_bounded(self, rng):
        x = rng.random((1000, 3))
        y = rng.random(1000) < 0.5
        tree = DecisionTree(max_depth=3, min_leaf=5).fit(x, y)
        assert tree.depth() <= 3

    def test_fraction_matches_per_row_descent(self, rng):
        x = rng.random((800, 3))
        y = (x[:, 0] > 0.4) ^ (rng.random(800) < 0.2)
        tree = DecisionTree(max_depth=4, min_leaf=5).fit(x, y)

        def leaf_fraction(row):
            node = tree._root
            while not node.is_leaf:
                goes_left = row[node.feature] <= node.threshold
                node = node.left if goes_left else node.right
            return node.positive_fraction

        assert tree.depth() > 1
        np.testing.assert_array_equal(
            tree.predict_fraction(x), [leaf_fraction(row) for row in x]
        )

    def test_prediction_frees_features_without_the_cycle_collector(
        self, rng
    ):
        # A reference cycle around the feature matrix would keep it (and
        # the process's peak memory) alive until the next collection.
        x = rng.random((400, 2))
        tree = DecisionTree(max_depth=3).fit(x, x[:, 1] > 0.5)
        features = rng.random((100, 2))
        alive = weakref.ref(features)
        gc.disable()
        try:
            tree.predict_fraction(features)
            del features
            assert alive() is None
        finally:
            gc.enable()

    def test_unfitted_predict_rejected(self):
        with pytest.raises(PipelineError):
            DecisionTree().predict(np.zeros((1, 1)))

    def test_bad_inputs_rejected(self):
        with pytest.raises(PipelineError):
            DecisionTree().fit(np.zeros((3,)), np.zeros(3, dtype=bool))
        with pytest.raises(PipelineError):
            DecisionTree().fit(np.zeros((3, 1)), np.zeros(4, dtype=bool))
        with pytest.raises(PipelineError):
            DecisionTree(max_depth=0)


class TestSortedSplitSearch:
    """``DecisionTree._best_split`` sorts each feature once; the mask per
    candidate threshold (``best_split_reference``) is its oracle."""

    @staticmethod
    def _data(seed: int, n: int = 80) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        x = np.column_stack(
            [
                rng.integers(0, 4, n),  # four values: heavy ties
                np.full(n, 0.5),  # constant: no threshold splits it
                rng.random(n).round(1),  # ties at every tenth
                rng.random(n),  # all distinct
            ]
        ).astype(np.float64)
        y = rng.random(n) < np.where(x[:, 0] > 1, 0.7, 0.2)
        return x, y

    # The oracle averages an empty side at min_leaf 0 (a nan gain).
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_leaf", [0, 1, 3, 8, 39, 40, 41])
    def test_matches_per_threshold_masks(self, seed, min_leaf):
        # n = 80: at min_leaf 40 only an exact halving is allowed, and at
        # 41 no split is.
        x, y = self._data(seed)
        tree = DecisionTree(max_depth=3, min_leaf=min_leaf)
        split = tree._best_split(x, y)
        assert split == best_split_reference(tree, x, y)
        if min_leaf == 41:
            assert split is None

    def test_constant_features_never_split(self):
        x = np.full((60, 2), 0.25)
        y = np.arange(60) % 3 == 0
        tree = DecisionTree(min_leaf=1)
        assert tree._best_split(x, y) is None
        assert best_split_reference(tree, x, y) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_fitted_tree_matches_oracle(self, seed):
        x, y = self._data(seed, n=400)
        fitted = DecisionTree(max_depth=4, min_leaf=5).fit(x, y)
        with reference_path():
            oracle = DecisionTree(max_depth=4, min_leaf=5).fit(x, y)
        assert fitted.depth() > 1
        assert pickle.dumps(fitted) == pickle.dumps(oracle)


def test_training_counts_one_block_miss_per_patch(monkeypatch):
    bands = tuple(get_band(name) for name in ("B2", "B3", "B4", "B8"))
    monkeypatch.setattr(cloud, "_DETECTOR_CACHE", {})
    rendered: list[int] = []
    render = EarthModel._render_blocks

    def counting(model, band, base, cells):
        rendered.append(len(cells))
        return render(model, band, base, cells)

    monkeypatch.setattr(EarthModel, "_render_blocks", counting)
    baseline = counters().snapshot()
    train_onboard_detector(bands, tile_size=64)
    train_ground_detector(bands)
    delta = counters().diff(baseline)
    # Every training capture is a fresh location: each changed cell's
    # block renders once and is never looked up again.
    assert sum(rendered) == 1250
    assert delta.get("cache.block.miss") == sum(rendered)
    assert delta.get("cache.block.hit") == 0


class TestCloudFeatures:
    def test_shape(self, two_bands, rng):
        pixels = {b.name: rng.random((16, 16)) for b in two_bands}
        features = cloud_features(pixels, two_bands)
        assert features.shape == (16, 16, 3)

    def test_contrast_is_difference(self, two_bands):
        pixels = {
            "B4": np.full((4, 4), 0.8),
            "B11": np.full((4, 4), 0.1),
        }
        features = cloud_features(pixels, two_bands)
        assert np.allclose(features[..., 2], 0.7)

    def test_requires_a_bright_band(self):
        from repro.imagery.bands import get_band

        cold_only = (get_band("B11"),)
        with pytest.raises(PipelineError):
            cloud_features({"B11": np.zeros((2, 2))}, cold_only)


class TestTrainedDetectors:
    def test_onboard_detector_cached(self, two_bands):
        a = train_onboard_detector(two_bands, tile_size=64)
        b = train_onboard_detector(two_bands, tile_size=64)
        assert a is b

    def test_detect_returns_full_res_mask(
        self, two_bands, onboard_detector, rng
    ):
        grid = TileGrid((128, 128), 64)
        pixels = {b.name: rng.random((128, 128)) for b in two_bands}
        mask = onboard_detector.detect(pixels, two_bands, grid)
        assert mask.shape == (128, 128)
        assert mask.dtype == bool

    def test_onboard_block_granularity(self, onboard_detector):
        assert onboard_detector.granularity == "block"
        assert onboard_detector.block_px >= 4

    def test_ground_detector_high_quality(self, two_bands, ground_detector):
        """The accurate detector must be near-oracle on held-out captures."""
        captures = _training_captures(two_bands, seed=777, n_captures=6,
                                      shape=(128, 128))
        grid = TileGrid((128, 128), 64)
        quality = evaluate_detector(ground_detector, captures, two_bands, grid)
        assert quality.precision > 0.9
        assert quality.recall > 0.9

    def test_onboard_detector_useful(self, two_bands, onboard_detector):
        captures = _training_captures(two_bands, seed=778, n_captures=6,
                                      shape=(128, 128))
        grid = TileGrid((128, 128), 64)
        quality = evaluate_detector(
            onboard_detector, captures, two_bands, grid
        )
        assert quality.precision > 0.85
        assert quality.recall > 0.6

    def test_onboard_paper_precision_claim(self, two_bands, onboard_detector):
        """Paper §5: >99 % of *areas* the cheap detector flags are cloudy.

        Measured at detection-block granularity: a flagged block counts as
        correct when it is majority-cloudy."""
        captures = _training_captures(two_bands, seed=779, n_captures=8,
                                      shape=(128, 128))
        block_grid = TileGrid((128, 128), onboard_detector.block_px)
        flagged_correct = 0
        flagged_total = 0
        for pixels, oracle in captures:
            mask = onboard_detector.detect(
                pixels, two_bands, TileGrid((128, 128), 64)
            )
            flagged_blocks = block_grid.reduce_fraction(mask) > 0.5
            cloudy_blocks = block_grid.reduce_fraction(oracle) > 0.4
            flagged_correct += int((flagged_blocks & cloudy_blocks).sum())
            flagged_total += int(flagged_blocks.sum())
        assert flagged_total > 0
        assert flagged_correct / flagged_total > 0.95

    def test_clear_scene_not_flagged(self, two_bands, onboard_detector, small_earth):
        """A cloud-free scene must produce (almost) no cloud detections."""
        grid = TileGrid((128, 128), 64)
        pixels = {
            b.name: small_earth.ground_truth(b.name, 5.0) * 0.9
            for b in two_bands
        }
        mask = onboard_detector.detect(pixels, two_bands, grid)
        assert mask.mean() < 0.05

    def test_unknown_granularity_rejected(self, two_bands, onboard_detector, rng):
        from dataclasses import replace

        broken = replace(onboard_detector, granularity="weird")
        grid = TileGrid((128, 128), 64)
        pixels = {b.name: rng.random((128, 128)) for b in two_bands}
        with pytest.raises(PipelineError):
            broken.detect(pixels, two_bands, grid)

    def test_coverage_helper(self, two_bands, ground_detector, rng):
        grid = TileGrid((128, 128), 64)
        pixels = {b.name: rng.random((128, 128)) for b in two_bands}
        coverage = ground_detector.coverage(pixels, two_bands, grid)
        assert 0.0 <= coverage <= 1.0
