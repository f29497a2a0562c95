"""Deterministic procedural noise used by the terrain and cloud generators.

Everything here is a pure function of an integer seed, so the whole synthetic
Earth is reproducible: generating the same location twice yields bit-identical
arrays.  The workhorse is seeded value noise with smooth (Hermite)
interpolation, composed into fractal Brownian motion by
:func:`fractal_noise`.
"""

from __future__ import annotations

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

    Pure function of its arguments; memoized because imagery synthesis
    re-renders the same shapes with thousands of different seeds.  The
    index arrays are flat indices into the raveled ``(cells_y + 1,
    cells_x + 1)`` lattice for the four cell corners.  Returned arrays
    are read-only.
    """
    ys = np.linspace(0.0, cells_y, height, endpoint=False)
    xs = np.linspace(0.0, cells_x, width, endpoint=False)
    y0 = np.minimum(ys.astype(np.int64), cells_y - 1)
    x0 = np.minimum(xs.astype(np.int64), cells_x - 1)
    ty = smoothstep((ys - y0))[:, None]
    tx = smoothstep((xs - x0))[None, :]
    stride = cells_x + 1
    flat00 = y0[:, None] * stride + x0[None, :]
    corners = (flat00, flat00 + 1, flat00 + stride, flat00 + stride + 1)
    for array in corners + (ty, tx):
        array.setflags(write=False)
    return corners, ty, tx


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
    cells = max(1, int(cells))
    longer = max(height, width)
    cells_y = max(1, round(cells * height / longer))
    cells_x = max(1, round(cells * width / longer))
    lattice = _lattice_values(seed, cells_y, cells_x)
    # Flat-index gathers of the four cell corners, with the index geometry
    # memoized per (shape, cells): the same lattice elements an open-mesh
    # np.ix_ gather selects, without rebuilding the mesh per call.
    corners, ty, tx = _interp_geometry(height, width, cells_y, cells_x)
    kernels = registry.kernels()
    if kernels is not None:
        # One native pass: gather + Hermite blend, term-for-term the numpy
        # expression below (bit-identical output).
        return kernels.noise_bilerp(
            lattice, cells_x + 1, corners[0], ty.ravel(), tx.ravel()
        )
    flat = lattice.ravel()
    v00, v01, v10, v11 = (flat[c] for c in corners)
    top = v00 * (1.0 - tx) + v01 * tx
    bottom = v10 * (1.0 - tx) + v11 * tx
    return top * (1.0 - ty) + bottom * ty


def fractal_noise(
    shape: tuple[int, int],
    seed: int,
    octaves: int = 4,
    base_cells: int = 4,
    persistence: float = 0.55,
    lacunarity: float = 2.0,
) -> np.ndarray:
    """Fractal Brownian motion: a sum of value-noise octaves.

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
    total = np.zeros(shape, dtype=np.float64)
    amplitude = 1.0
    cells = float(base_cells)
    amplitude_sum = 0.0
    for octave in range(octaves):
        octave_seed = (seed * 1_000_003 + octave * 7919) & 0x7FFFFFFF
        total += amplitude * value_noise(shape, int(round(cells)), octave_seed)
        amplitude_sum += amplitude
        amplitude *= persistence
        cells *= lacunarity
    total /= amplitude_sum
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
