"""Deterministic procedural noise used by the terrain and cloud generators.

Everything here is a pure function of an integer seed, so the whole synthetic
Earth is reproducible: generating the same location twice yields bit-identical
arrays.  The workhorse is seeded value noise with smooth (Hermite)
interpolation, composed into fractal Brownian motion by
:func:`fractal_noise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.codec import registry


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Hermite smoothing ``3t^2 - 2t^3`` used for value-noise interpolation.

    Args:
        t: Array of interpolation parameters in ``[0, 1]``.

    Returns:
        Smoothed parameters, same shape as ``t``.
    """
    return t * t * (3.0 - 2.0 * t)


def _lattice_values(seed: int, cells_y: int, cells_x: int) -> np.ndarray:
    """Random values on a (cells_y+1, cells_x+1) integer lattice."""
    rng = np.random.default_rng(seed)
    return rng.random((cells_y + 1, cells_x + 1))


@lru_cache(maxsize=256)
def _interp_geometry(
    height: int, width: int, cells_y: int, cells_x: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lattice indices and Hermite weights for one (shape, cells) pair.

    Separable: ``(y0, ty)`` give each pixel row's upper lattice row and
    its weight, ``(x0, tx)`` each pixel column's left lattice column and
    its weight.  Pure function of its arguments; memoized because imagery
    synthesis re-renders the same shapes with thousands of different
    seeds.  Returned arrays are read-only.
    """
    ys = np.linspace(0.0, cells_y, height, endpoint=False)
    xs = np.linspace(0.0, cells_x, width, endpoint=False)
    y0 = np.minimum(ys.astype(np.int64), cells_y - 1)
    x0 = np.minimum(xs.astype(np.int64), cells_x - 1)
    geometry = (y0, smoothstep(ys - y0), x0, smoothstep(xs - x0))
    for array in geometry:
        array.setflags(write=False)
    return geometry


def _lattice_cells(height: int, width: int, cells: int) -> tuple[int, int]:
    """Lattice cells along each axis for ``cells`` along the longer one."""
    cells = max(1, int(cells))
    longer = max(height, width)
    return (
        max(1, round(cells * height / longer)),
        max(1, round(cells * width / longer)),
    )


def value_noise(shape: tuple[int, int], cells: int, seed: int) -> np.ndarray:
    """Single-octave value noise over a 2-D grid.

    A coarse lattice of uniform random values is smoothly interpolated up to
    the requested resolution.  Feature size is controlled by ``cells``: the
    image is divided into ``cells`` lattice cells along its longer axis.

    Args:
        shape: Output ``(height, width)``.
        cells: Number of lattice cells along the longer image axis (>= 1).
        seed: Seed for the lattice values.

    Returns:
        Array of shape ``shape`` with values in ``[0, 1]``.
    """
    height, width = shape
    cells_y, cells_x = _lattice_cells(height, width, cells)
    lattice = _lattice_values(seed, cells_y, cells_x)
    y0, ty, x0, tx = _interp_geometry(height, width, cells_y, cells_x)
    # Each lattice row's horizontal blend once, then every pixel row's
    # vertical blend of the two rows around it: term for term the
    # four-corner expression top = v00 * (1 - tx) + v01 * tx (likewise
    # bottom), out = top * (1 - ty) + bottom * ty.
    rows = lattice[:, x0] * (1.0 - tx) + lattice[:, x0 + 1] * tx
    ty = ty[:, None]
    return rows[y0] * (1.0 - ty) + rows[y0 + 1] * ty


@dataclass(frozen=True)
class _FieldPlan:
    """Every seed-independent part of one fractal-noise field.

    Attributes:
        cells: Each octave's lattice cells along the longer axis.
        amplitudes: Each octave's amplitude (float64).
        amplitude_sum: Their sum, accumulated in octave order.
        offsets: Where each octave's lattice starts in the shared
            lattice buffer, plus its total size last (int64).
        cols: Each octave's lattice row length (int64).
        rows: Each octave's ``(y0, ty)`` geometry, back to back.
        columns: Each octave's ``(x0, tx)`` geometry, back to back.
    """

    cells: tuple[int, ...]
    amplitudes: np.ndarray
    amplitude_sum: float
    offsets: np.ndarray
    cols: np.ndarray
    rows: tuple[np.ndarray, np.ndarray]
    columns: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=256)
def _field_plan(
    height: int,
    width: int,
    octaves: int,
    base_cells: float,
    persistence: float,
    lacunarity: float,
) -> _FieldPlan:
    """The plan of a fractal field; pure function of its arguments."""
    cells: list[int] = []
    amplitudes: list[float] = []
    amplitude = 1.0
    scale = float(base_cells)
    amplitude_sum = 0.0
    for _ in range(octaves):
        cells.append(int(round(scale)))
        amplitudes.append(amplitude)
        amplitude_sum += amplitude
        amplitude *= persistence
        scale *= lacunarity
    grids = [_lattice_cells(height, width, c) for c in cells]
    geometry = [_interp_geometry(height, width, *grid) for grid in grids]
    sizes = [(cells_y + 1) * (cells_x + 1) for cells_y, cells_x in grids]
    return _FieldPlan(
        cells=tuple(cells),
        amplitudes=np.array(amplitudes, dtype=np.float64),
        amplitude_sum=amplitude_sum,
        offsets=np.cumsum([0, *sizes], dtype=np.int64),
        cols=np.array([cells_x + 1 for _, cells_x in grids], dtype=np.int64),
        rows=tuple(
            np.concatenate([g[k] for g in geometry]) for k in (0, 1)
        ),
        columns=tuple(
            np.concatenate([g[k] for g in geometry]) for k in (2, 3)
        ),
    )


def _octave_seed(seed: int, octave: int) -> int:
    """The lattice seed of one octave of a fractal field."""
    return (seed * 1_000_003 + octave * 7919) & 0x7FFFFFFF


def _fused_kernels():
    """The compiled kernels for one-pass fractal fields, or None.

    The one switch between the native field and the per-octave numpy
    sum: ``sim_oracle.reference_path()`` patches it to return None, so
    that the numpy sum runs over the reference :func:`value_noise`.
    """
    return registry.kernels()


def fractal_noise(
    shape: tuple[int, int],
    seed: int,
    octaves: int = 4,
    base_cells: int = 4,
    persistence: float = 0.55,
    lacunarity: float = 2.0,
) -> np.ndarray:
    """Fractal Brownian motion: a sum of value-noise octaves.

    With the compiled kernels, one native call sums every octave and
    normalizes the field; without them, numpy sums :func:`value_noise`
    octave by octave.  Both draw the same lattices and produce the same
    bytes.

    Args:
        shape: Output ``(height, width)``.
        seed: Base seed; each octave derives its own sub-seed from it.
        octaves: Number of octaves to sum (>= 1).
        base_cells: Lattice cells of the first (coarsest) octave.
        persistence: Amplitude decay per octave, in ``(0, 1]``.
        lacunarity: Frequency growth per octave (> 1).

    Returns:
        Array of shape ``shape``, normalized to ``[0, 1]``.
    """
    if octaves < 1:
        raise ValueError(f"octaves must be >= 1, got {octaves}")
    height, width = shape
    if height < 1 or width < 1:
        raise ValueError(f"shape must be positive, got {shape}")
    plan = _field_plan(
        height, width, octaves, float(base_cells), persistence, lacunarity
    )
    kernels = _fused_kernels()
    if kernels is not None:
        offsets = plan.offsets.tolist()
        lattices = np.empty(offsets[-1], dtype=np.float64)
        for octave in range(octaves):
            rng = np.random.default_rng(_octave_seed(seed, octave))
            rng.random(out=lattices[offsets[octave] : offsets[octave + 1]])
        return kernels.fractal_field(
            lattices,
            plan.offsets[:-1],
            plan.cols,
            plan.rows,
            plan.columns,
            plan.amplitudes,
            plan.amplitude_sum,
            (height, width),
        )
    total = np.zeros(shape, dtype=np.float64)
    for octave, (cells, amplitude) in enumerate(
        zip(plan.cells, plan.amplitudes.tolist())
    ):
        total += amplitude * value_noise(shape, cells, _octave_seed(seed, octave))
    total /= plan.amplitude_sum
    lo, hi = float(total.min()), float(total.max())
    if hi - lo < 1e-12:
        return np.zeros(shape, dtype=np.float64)
    return (total - lo) / (hi - lo)


def seeded_uniform(seed: int, *shape: int) -> np.ndarray:
    """Uniform [0, 1) samples from a derived deterministic stream."""
    return np.random.default_rng(seed).random(shape)


def stable_hash(*parts: int | str) -> int:
    """Combine integers/strings into a stable 63-bit seed.

    Python's builtin ``hash`` is salted per process for strings, so this uses
    an explicit FNV-1a over the repr of the parts to stay reproducible across
    runs and machines.
    """
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in repr(part).encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF
