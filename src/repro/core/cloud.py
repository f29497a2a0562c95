"""Cloud detection: cheap-but-precise on-board, accurate on the ground.

The paper's design point (§4.3, §5) is an *asymmetric* pair of detectors:

* the **on-board detector** must be cheap (it shares a small CPU with the
  encoder) and *precision-biased*: flagging clear ground as cloud discards
  real changes forever, while missing a cloud merely wastes downlink (the
  tile gets flagged changed and downloaded).  The paper uses a decision
  tree over the InfraRed contrast of heavy clouds, run on a 64x-downsampled
  image, and reports >99 % precision;
* the **ground detector** can be expensive and accuracy-biased (the paper
  cites a multi-layer NN [74]); it re-screens downloaded imagery so only
  genuinely cloud-free images become references.

Both detectors here are real trained models: a small CART decision tree
(:class:`DecisionTree`, implemented in this module) fitted on synthetic
labelled captures rendered by :mod:`repro.imagery`.  The on-board variant
classifies per tile with a precision-biased leaf rule; the ground variant
classifies per pixel with a deeper tree.  Their precision/recall against the
oracle masks is measured in the test suite, including the >99 % on-board
precision property.

The features average each band group with a running sum rather than
numpy's mean over a stacked copy of the bands (float-identical; the
stacked mean is the differential oracle in ``tests/sim_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tiles import TileGrid
from repro.errors import PipelineError
from repro.imagery import sensor
from repro.imagery.bands import Band, BandCategory
from repro.imagery.clouds import CloudModel
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.illumination import IlluminationModel
from repro.imagery.noise import stable_hash


# ----------------------------------------------------------------------
# A small CART implementation (gini impurity, axis-aligned splits)
# ----------------------------------------------------------------------
@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    positive_fraction: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """Binary CART classifier with gini splits.

    Args:
        max_depth: Maximum tree depth.
        min_leaf: Minimum samples per leaf.
    """

    def __init__(self, max_depth: int = 3, min_leaf: int = 8) -> None:
        if max_depth < 1:
            raise PipelineError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._root: _TreeNode | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTree":
        """Fit on ``features`` (n, d) with boolean ``labels`` (n,)."""
        if features.ndim != 2 or labels.ndim != 1:
            raise PipelineError("features must be (n, d) and labels (n,)")
        if features.shape[0] != labels.shape[0]:
            raise PipelineError("features/labels length mismatch")
        if features.shape[0] == 0:
            raise PipelineError("cannot fit on empty data")
        self._root = self._build(features.astype(np.float64), labels.astype(bool), 0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(positive_fraction=float(y.mean()))
        if (
            depth >= self.max_depth
            or y.size < 2 * self.min_leaf
            or node.positive_fraction in (0.0, 1.0)
        ):
            return node
        best = self._best_split(x, y)
        if best is None:
            return node
        feature, threshold = best
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        n, d = x.shape
        parent_gini = self._gini(float(y.mean()))
        best_gain = 1e-9
        best: tuple[int, float] | None = None
        for feature in range(d):
            values = x[:, feature]
            candidates = np.quantile(values, np.linspace(0.05, 0.95, 19))
            for threshold in np.unique(candidates):
                mask = values <= threshold
                n_left = int(mask.sum())
                if n_left < self.min_leaf or n - n_left < self.min_leaf:
                    continue
                p_left = float(y[mask].mean())
                p_right = float(y[~mask].mean())
                gini = (
                    n_left * self._gini(p_left)
                    + (n - n_left) * self._gini(p_right)
                ) / n
                gain = parent_gini - gini
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold))
        return best

    @staticmethod
    def _gini(p: float) -> float:
        return 2.0 * p * (1.0 - p)

    def predict_fraction(self, features: np.ndarray) -> np.ndarray:
        """Leaf positive-fraction for each row of ``features``.

        Vectorized: the tree is walked once per node with boolean row
        masks, not once per row.  The walk is an explicit stack: a
        recursive closure would reference itself, and that cycle would
        keep ``features`` alive until the cyclic garbage collector ran.
        """
        if self._root is None:
            raise PipelineError("tree is not fitted")
        out = np.zeros(features.shape[0], dtype=np.float64)
        pending = [(self._root, np.ones(features.shape[0], dtype=bool))]
        while pending:
            node, rows = pending.pop()
            if not rows.any():
                continue
            if node.is_leaf:
                out[rows] = node.positive_fraction
                continue
            assert node.left is not None and node.right is not None
            goes_left = features[:, node.feature] <= node.threshold
            pending.append((node.right, rows & ~goes_left))
            pending.append((node.left, rows & goes_left))
        return out

    def predict(self, features: np.ndarray, min_confidence: float = 0.5) -> np.ndarray:
        """Boolean predictions; positive only when leaf purity >= threshold.

        A high ``min_confidence`` yields the precision-biased behaviour the
        on-board detector needs.
        """
        return self.predict_fraction(features) >= min_confidence

    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def walk(node: _TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise PipelineError("tree is not fitted")
        return walk(self._root)


# ----------------------------------------------------------------------
# Feature extraction
# ----------------------------------------------------------------------
def _split_bands(bands: tuple[Band, ...]) -> tuple[list[str], list[str]]:
    """Partition band names into bright-under-cloud and cold-under-cloud."""
    bright = [b.name for b in bands if not b.cloud_cold]
    cold = [b.name for b in bands if b.cloud_cold]
    if not bright:
        raise PipelineError("need at least one non-cold band for cloud features")
    return bright, cold


def _band_mean(pixels: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    """Mean of the named band images, without stacking them.

    A running sum in band order, started from 0.0, divided by the band
    count: numpy's axis-0 mean of the stacked bands starts from the same
    identity and adds the same slices in the same order, so the two are
    float-identical (a -0.0 pixel sums to 0.0 in both).
    """
    total = pixels[names[0]] + 0.0
    for name in names[1:]:
        total += pixels[name]
    total /= len(names)
    return total


def cloud_features(
    pixels: dict[str, np.ndarray], bands: tuple[Band, ...]
) -> np.ndarray:
    """Per-pixel cloud features: brightness, coldness, and their contrast.

    Returns an (H, W, 3) stack: mean bright-band value, mean cold-band value
    (0.5 when no cold band exists), and their difference — the "heavy clouds
    are cold in InfraRed but bright in visible" signal the paper's cheap
    detector keys on.  Each band mean is a running sum
    (:func:`_band_mean`), so the band images are never stacked.
    """
    bright_names, cold_names = _split_bands(bands)
    bright = _band_mean(pixels, bright_names)
    if cold_names:
        cold = _band_mean(pixels, cold_names)
    else:
        cold = np.full_like(bright, 0.5)
    return np.stack([bright, cold, bright - cold], axis=-1)


# ----------------------------------------------------------------------
# Detector wrapper
# ----------------------------------------------------------------------
@dataclass
class CloudDetector:
    """A trained cloud detector operating per block or per pixel.

    Attributes:
        tree: Fitted decision tree over the 3 cloud features.
        granularity: ``"block"`` (on-board: one decision per small pixel
            block from block-mean features — the scale-equivalent of the
            paper's 64x-downsampled detection) or ``"pixel"`` (ground).
        block_px: Block edge for block granularity.
        min_confidence: Leaf-purity threshold; high values bias precision.
        name: Human-readable identifier.
    """

    tree: DecisionTree
    granularity: str
    min_confidence: float
    name: str
    block_px: int = 16

    def detect(
        self,
        pixels: dict[str, np.ndarray],
        bands: tuple[Band, ...],
        grid: TileGrid,
    ) -> np.ndarray:
        """Return a pixel-level boolean cloud mask.

        Block-granularity detectors decide per block and expand; the
        returned mask is always full resolution so callers compose masks
        uniformly.
        """
        if self.granularity == "block":
            # The paper's trick: detect on a DOWNSAMPLED image.  Reducing
            # the pixels first (cheap block means) keeps the whole feature
            # and classification pipeline at 1/block_px^2 scale.
            block_grid = TileGrid(grid.image_shape, self.block_px)
            reduced = {
                name: block_grid.reduce_mean(image)
                for name, image in pixels.items()
            }
            features = cloud_features(reduced, bands)
            flat = features.reshape(-1, 3)
            cloudy = self.tree.predict(flat, self.min_confidence).reshape(
                block_grid.grid_shape
            )
            return block_grid.expand(cloudy)
        if self.granularity == "pixel":
            features = cloud_features(pixels, bands)
            flat = features.reshape(-1, 3)
            return self.tree.predict(flat, self.min_confidence).reshape(
                features.shape[:2]
            )
        raise PipelineError(f"unknown granularity {self.granularity!r}")

    def coverage(
        self,
        pixels: dict[str, np.ndarray],
        bands: tuple[Band, ...],
        grid: TileGrid,
    ) -> float:
        """Detected cloud fraction of a capture."""
        return float(self.detect(pixels, bands, grid).mean())


@dataclass(frozen=True)
class DetectorQuality:
    """Precision/recall of a detector against oracle masks.

    Attributes:
        precision: Of pixels flagged cloudy, the truly-cloudy fraction.
        recall: Of truly-cloudy pixels, the flagged fraction.
        n_samples: Pixels evaluated.
    """

    precision: float
    recall: float
    n_samples: int


def evaluate_detector(
    detector: CloudDetector,
    captures: list[tuple[dict[str, np.ndarray], np.ndarray]],
    bands: tuple[Band, ...],
    grid: TileGrid,
) -> DetectorQuality:
    """Score a detector against oracle pixel masks.

    Args:
        detector: The detector under test.
        captures: ``(pixels, oracle_mask)`` pairs.
        bands: Band definitions for feature extraction.
        grid: Tile grid of the captures.

    Returns:
        Pooled precision/recall.
    """
    tp = fp = fn = 0
    total = 0
    for pixels, oracle in captures:
        predicted = detector.detect(pixels, bands, grid)
        tp += int((predicted & oracle).sum())
        fp += int((predicted & ~oracle).sum())
        fn += int((~predicted & oracle).sum())
        total += oracle.size
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return DetectorQuality(precision=precision, recall=recall, n_samples=total)


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def _training_captures(
    bands: tuple[Band, ...],
    seed: int,
    n_captures: int,
    shape: tuple[int, int],
) -> list[tuple[dict[str, np.ndarray], np.ndarray]]:
    """Render labelled training captures across varied terrain."""
    mixes = [
        {TerrainClass.FOREST: 0.5, TerrainClass.AGRICULTURE: 0.5},
        {TerrainClass.CITY: 0.4, TerrainClass.RIVER: 0.2, TerrainClass.FOREST: 0.4},
        {TerrainClass.MOUNTAIN: 0.6, TerrainClass.COASTAL: 0.4},
    ]
    out: list[tuple[dict[str, np.ndarray], np.ndarray]] = []
    for idx in range(n_captures):
        mix = mixes[idx % len(mixes)]
        spec = LocationSpec(
            name=f"train-{idx}",
            shape=shape,
            terrain_mix=mix,
            seed=stable_hash(seed, "cloudtrain", idx),
        )
        earth = EarthModel(spec, bands)
        clouds = CloudModel(
            seed=stable_hash(seed, "cloudtrain-sky", idx),
            shape=shape,
            clear_probability=0.15,
        )
        illum = IlluminationModel(seed=stable_hash(seed, "cloudtrain-sun", idx))
        t_days = float(idx * 13 % 365)
        sample = clouds.sample(t_days)
        # Called through the module, like the sensor's own captures, so
        # that sim_oracle.reference_path() reaches training images too.
        pixels = sensor.render_pixels(
            earth, bands, t_days, sample, illum.sample(t_days)
        )
        out.append((pixels, sample.mask))
    return out


# repro: allow(RPR005): per-process memo of deterministically-trained detectors — training is a pure function of the key, so independently-warmed worker copies are bit-identical
_DETECTOR_CACHE: dict[tuple, CloudDetector] = {}


def train_onboard_detector(
    bands: tuple[Band, ...],
    tile_size: int = 64,
    seed: int = 1234,
) -> CloudDetector:
    """Train the cheap, precision-biased on-board detector.

    Tile-granularity features (the paper's 64x downsampling), shallow tree,
    and a 0.97 leaf-purity requirement so that almost everything flagged
    cloudy truly is (>99 % precision is asserted in tests).

    Results are cached per (bands, tile_size, seed) since training data and
    CART fitting are deterministic.
    """
    key = ("onboard", tuple(b.name for b in bands), tile_size, seed)
    if key in _DETECTOR_CACHE:
        return _DETECTOR_CACHE[key]
    block_px = max(4, tile_size // 4)
    shape = (tile_size * 4, tile_size * 4)
    grid = TileGrid(shape, block_px)
    captures = _training_captures(bands, seed, n_captures=30, shape=shape)
    features: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for pixels, oracle in captures:
        stack = cloud_features(pixels, bands)
        block_feat = np.stack(
            [grid.reduce_mean(stack[..., k]) for k in range(3)], axis=-1
        )
        block_label = grid.reduce_fraction(oracle) > 0.5
        features.append(block_feat.reshape(-1, 3))
        labels.append(block_label.reshape(-1))
    tree = DecisionTree(max_depth=4, min_leaf=8).fit(
        np.concatenate(features), np.concatenate(labels)
    )
    detector = CloudDetector(
        tree=tree,
        granularity="block",
        min_confidence=0.9,
        name="onboard-tree",
        block_px=block_px,
    )
    _DETECTOR_CACHE[key] = detector
    return detector


def train_ground_detector(
    bands: tuple[Band, ...],
    seed: int = 1234,
) -> CloudDetector:
    """Train the accurate ground-side detector (per pixel, deeper tree).

    Stands in for the paper's neural detector [74]: accuracy-biased, run
    only on the ground where compute is plentiful.
    """
    key = ("ground", tuple(b.name for b in bands), seed)
    if key in _DETECTOR_CACHE:
        return _DETECTOR_CACHE[key]
    shape = (128, 128)
    captures = _training_captures(bands, seed, n_captures=12, shape=shape)
    features: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    rng = np.random.default_rng(stable_hash(seed, "ground-subsample"))
    for pixels, oracle in captures:
        stack = cloud_features(pixels, bands).reshape(-1, 3)
        flat = oracle.reshape(-1)
        pick = rng.random(flat.size) < 0.25
        features.append(stack[pick])
        labels.append(flat[pick])
    tree = DecisionTree(max_depth=5, min_leaf=12).fit(
        np.concatenate(features), np.concatenate(labels)
    )
    detector = CloudDetector(
        tree=tree, granularity="pixel", min_confidence=0.5, name="ground-tree"
    )
    _DETECTOR_CACHE[key] = detector
    return detector
