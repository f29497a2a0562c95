"""Deterministic procedural noise used by the terrain and cloud generators.

Everything here is a pure function of an integer seed, so the whole synthetic
Earth is reproducible: generating the same location twice yields bit-identical
arrays.  The workhorse is :func:`fractal_noise`: fractal Brownian motion, a
sum of octaves of seeded value noise with smooth (Hermite) interpolation,
rendered by one compiled kernel call per field (:mod:`repro.codec._ckernels`).
Its specification, a per-octave numpy sum, is ``fractal_field_reference`` in
``tests/sim_oracle.py``.
"""

from __future__ import annotations

from collections.abc import Callable
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


@dataclass(frozen=True)
class FieldPlan:
    """Every seed-independent part of one fractal-noise field.

    Attributes:
        shape: The field's ``(height, width)``.
        amplitudes: Each octave's amplitude (float64).
        amplitude_sum: Their sum, accumulated in octave order.
        offsets: Where each octave's lattice starts in the shared
            lattice buffer, plus its total size last (int64).
        cols: Each octave's lattice row length (int64).
        rows: Each octave's ``(y0, ty)`` geometry, back to back.
        columns: Each octave's ``(x0, tx)`` geometry, back to back.
    """

    shape: tuple[int, int]
    amplitudes: np.ndarray
    amplitude_sum: float
    offsets: np.ndarray
    cols: np.ndarray
    rows: tuple[np.ndarray, np.ndarray]
    columns: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=256)
def field_plan(
    height: int,
    width: int,
    octaves: int,
    base_cells: float,
    persistence: float = 0.55,
    lacunarity: float = 2.0,
) -> FieldPlan:
    """The plan of a fractal field; pure function of its arguments.

    The defaults are :func:`fractal_noise`'s.
    """
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
    return FieldPlan(
        shape=(height, width),
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


def fractal_noise(
    shape: tuple[int, int],
    seed: int,
    octaves: int = 4,
    base_cells: int = 4,
    persistence: float = 0.55,
    lacunarity: float = 2.0,
) -> np.ndarray:
    """Fractal Brownian motion: a sum of value-noise octaves.

    Octave ``k`` interpolates a lattice of uniform values drawn from its
    own sub-seed, with ``base_cells * lacunarity**k`` lattice cells
    (rounded) along the longer image axis, and weighs it by
    ``persistence**k``; the weighted sum is divided by the weights' sum
    and normalized to ``[0, 1]`` (all zeros for a flat field).

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
    return _fractal_field(
        (height, width), seed, octaves, float(base_cells), persistence,
        lacunarity,
    )


def _fractal_field(
    shape: tuple[int, int],
    seed: int,
    octaves: int,
    base_cells: float,
    persistence: float,
    lacunarity: float,
) -> np.ndarray:
    """One validated fractal field: every octave in one native call.

    The lattices are numpy draws, one generator per octave; the kernel
    blends, sums and normalizes them.  Every fractal field of the program
    is rendered here, which makes this the seam that
    ``sim_oracle.reference_path()`` replaces with the per-octave sum.
    """
    height, width = shape
    plan = field_plan(
        height, width, octaves, base_cells, persistence, lacunarity
    )
    lattices = np.empty(plan.offsets[-1], dtype=np.float64)
    draw_lattices(seed, plan, lattices)
    return registry.kernels().fractal_field(
        lattices,
        plan.offsets[:-1],
        plan.cols,
        plan.rows,
        plan.columns,
        plan.amplitudes,
        plan.amplitude_sum,
        shape,
    )


def draw_lattices(seed: int, plan: FieldPlan, out: np.ndarray) -> None:
    """Draw the octave lattices of the field ``plan`` seeded ``seed``.

    Octave ``k``'s lattice comes from its own generator
    (:func:`_octave_seed`) and lands in ``out`` at ``plan.offsets[k]``;
    ``out`` holds ``plan.offsets[-1]`` values.
    """
    offsets = plan.offsets.tolist()
    for octave in range(len(offsets) - 1):
        rng = np.random.default_rng(_octave_seed(seed, octave))
        rng.random(out=out[offsets[octave] : offsets[octave + 1]])


def seeded_uniform(seed: int, *shape: int) -> np.ndarray:
    """Uniform [0, 1) samples from a derived deterministic stream."""
    return np.random.default_rng(seed).random(shape)


def _fnv1a(acc: int, parts: tuple) -> int:
    """FNV-1a state ``acc`` extended by the repr bytes of ``parts``."""
    for part in parts:
        for byte in repr(part).encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def stable_hash(*parts: int | str) -> int:
    """Combine integers/strings into a stable 63-bit seed.

    Python's builtin ``hash`` is salted per process for strings, so this uses
    an explicit FNV-1a over the repr of the parts to stay reproducible across
    runs and machines.
    """
    return _fnv1a(0xCBF29CE484222325, parts) & 0x7FFFFFFFFFFFFFFF


def stable_hasher(*prefix: int | str) -> Callable[..., int]:
    """:func:`stable_hash` with its leading parts fixed.

    ``stable_hasher(*a)(*b) == stable_hash(*a, *b)``: FNV-1a reads the
    parts in order, so the prefix is hashed once for all calls.
    """
    state = _fnv1a(0xCBF29CE484222325, prefix)

    def hash_rest(*parts: int | str) -> int:
        return _fnv1a(state, parts) & 0x7FFFFFFFFFFFFFFF

    return hash_rest
