"""Build and load the compiled kernels (C via the system toolchain).

Every hot computation of the codec and of imagery synthesis has one
production path: the C in ``_ckernels.c``, shipped next to this module
as package data.  numba is not a dependency, so the kernels are plain
C99 compiled on first use with the system compiler into a cached shared
object and called through :mod:`ctypes`:

* the bit-plane coder, one call per tile each way (every plane, every
  band): the significance / sign / refinement passes fused with the
  Subbotin range coder and its 32-bit masking discipline — state is held
  in ``uint64_t`` and masked exactly where the per-bit oracle
  (``tests/codec_oracle.py``) masks, so the unmasked ``low ^ (low +
  range)`` renormalization test is preserved verbatim.  Each band keeps a
  count of its significant neighbours, bumped once when a coefficient
  turns significant, so a significance context is one lookup;
* the multilevel 2-D DWT, fused: one call per transform runs every level
  and both axes of an (n, h, w) stack for 5/3 or 9/7 (transposing so
  every pass runs along the leading axis), compiled with
  ``-ffp-contract=off`` (no fused multiply-add, no fast-math) so every
  float operation rounds exactly like the oracle's numpy lifting loops;
* the rate model's magnitude→top-bit histogram, descending plane walk
  and dead-zone dequantize (the entropy matrix stays in numpy —
  ``np.log2`` — so transcendental rounding cannot drift);
* imagery synthesis, one call per field: a fractal-noise field sums every
  octave's Hermite-blended lattice and normalizes it, a location's base
  map is its class reflectance plus texture, clipped, in one pass, every
  change-cell block a surface composition misses (patch field, blend
  with the base map, clip) renders in one call per composition, and a
  capture band is rendered (illumination, cloud composite, sensor noise,
  clips) in one pass; the lattices, patch amplitudes and noise stay
  numpy draws.

Float identity with the oracles in ``tests/`` therefore holds to the last
ulp, and the integer kernels are exact; the differential, golden and
corruption suites enforce both.

The kernels are required.  :func:`load` builds them at first use (never
at import) and raises one :class:`~repro.errors.CodecError` when no
compiler is found — naming every compiler it tried — or when the build
fails, carrying the compiler's stderr.  ``REPRO_CODEC_CC`` names the
compiler to use; unset or empty, ``cc``, ``gcc`` and ``clang`` are tried
in that order.  The library is cached under ``~/.cache/repro/ckernels``,
keyed by the source bytes, the compiler and :data:`_CFLAGS`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import CodecError

#: The kernel source, shipped as package data.
_SOURCE = Path(__file__).with_name("_ckernels.c")

#: Compiler candidates tried in order when REPRO_CODEC_CC is unset/empty.
_COMPILERS = ("cc", "gcc", "clang")

#: Flags that guarantee float identity with the numpy oracles: no FMA
#: contraction, no fast-math value changes.  Part of the cache key, so a
#: test harness may extend it (sanitizer builds) before the first load.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_ENV_CC = "REPRO_CODEC_CC"


def _find_compiler() -> str:
    """The compiler to use.

    Raises:
        CodecError: When no candidate is on PATH; names every one tried.
    """
    override = os.environ.get(_ENV_CC, "").strip()
    candidates = (override,) if override else _COMPILERS
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    raise CodecError(
        "the compiled kernels need a C compiler, but none was found on "
        f"PATH (tried {', '.join(candidates)}); install one, or name it "
        f"in {_ENV_CC}"
    )


def _cache_dir() -> Path:
    try:
        base = Path.home() / ".cache" / "repro" / "ckernels"
        base.mkdir(parents=True, exist_ok=True)
        return base
    except OSError:
        return Path(tempfile.gettempdir()) / "repro-ckernels"


def _build(compiler: str) -> Path:
    """Compile the kernel library (cached by source+compiler+flags hash).

    Raises:
        CodecError: When the compiler fails; carries its stderr.
    """
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(
        b"\x00".join([source, compiler.encode(), " ".join(_CFLAGS).encode()])
    ).hexdigest()[:16]
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    lib_path = cache / f"repro_ckernels_{tag}.so"
    if lib_path.exists():
        return lib_path
    # Every builder compiles its own private copy of the hashed source, in
    # a private directory, then renames the library into place: concurrent
    # builders (sweep workers) never write a file another builder's
    # compiler is reading, and os.replace is atomic.  The copy keeps the
    # source's name and is compiled by that relative name from inside the
    # private directory, so reports name it and the library's bytes (a
    # sanitizer build embeds source locations) depend only on the source,
    # the compiler and the flags.
    with tempfile.TemporaryDirectory(dir=str(cache)) as work:
        tmp_out = Path(work) / lib_path.name
        (Path(work) / _SOURCE.name).write_bytes(source)
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_out.name, _SOURCE.name, "-lm"],
                check=True,
                capture_output=True,
                text=True,
                cwd=work,
            )
        except subprocess.CalledProcessError as exc:
            raise CodecError(
                f"kernel compilation failed ({compiler} exited "
                f"{exc.returncode}): {exc.stderr.strip()}"
            ) from exc
        os.replace(tmp_out, lib_path)
    return lib_path


def _check_tile_buffers(
    magnitudes: np.ndarray,
    signs: np.ndarray,
    significant: np.ndarray,
    neighbours: np.ndarray,
    heights: np.ndarray,
    widths: np.ndarray,
    bases: np.ndarray,
    count0: np.ndarray,
    count1: np.ndarray,
) -> None:
    """Refuse buffers the tile kernels would index out of bounds.

    Every array must be contiguous with its kernel dtype; the four band
    buffers must hold exactly the bands ``heights`` x ``widths`` describe,
    and the context table every id from each band's base up to base + 4.
    """
    n_bands = heights.size
    for array, dtype in (
        (magnitudes, np.int64),
        (signs, np.bool_),
        (significant, np.uint8),
        (neighbours, np.uint8),
        (heights, np.int64),
        (widths, np.int64),
        (bases, np.int64),
        (count0, np.int64),
        (count1, np.int64),
    ):
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(
                f"tile kernels need contiguous {np.dtype(dtype).name} "
                f"buffers, got {array.dtype}"
            )
    size = int(heights @ widths)
    n_contexts = int(bases.max()) + 5 if n_bands else 0
    band_buffers = (magnitudes, signs, significant, neighbours)
    if (
        widths.size != n_bands
        or bases.size != n_bands
        or any(buffer.size != size for buffer in band_buffers)
        or min(count0.size, count1.size) < n_contexts
    ):
        raise ValueError(
            f"tile buffers do not match {n_bands} bands of {size} "
            f"coefficients and {n_contexts} contexts"
        )


def _address(array: "np.ndarray | None") -> ctypes.c_void_p:
    """A buffer's data address for a kernel argument (NULL for None)."""
    return ctypes.c_void_p(None if array is None else array.ctypes.data)


class CompiledKernels:
    """numpy-facing wrappers over the compiled kernel library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.rc_encode_tile.restype = i64
        lib.rc_encode_tile.argtypes = (
            [ptr] * 7 + [i64, i64] + [ptr] * 3 + [i64, ptr]
        )
        lib.rc_decode_tile.restype = ctypes.c_int
        lib.rc_decode_tile.argtypes = (
            [ptr, ptr, i64] + [ptr] * 7 + [i64, i64, ptr, ptr]
        )
        for name in (
            "dwt97_forward2d",
            "dwt97_inverse2d",
            "dwt53_forward2d",
            "dwt53_inverse2d",
            "rc_magnitude_histogram",
            "rc_magnitude_histogram_multi",
            "rc_plane_walk_bits",
            "rc_dequantize",
            "rc_dequantize_multi",
            "fractal_field",
            "render_band",
            "base_map",
            "change_blocks",
        ):
            getattr(lib, name).restype = None

    # -- range coder ---------------------------------------------------
    def encode_tile(
        self,
        magnitudes: np.ndarray,
        signs: np.ndarray,
        significant: np.ndarray,
        neighbours: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        bases: np.ndarray,
        max_plane: int,
        count0: np.ndarray,
        count1: np.ndarray,
    ) -> list[bytes]:
        """Fused encode of every plane of a tile, ``max_plane`` down to 0.

        The first four arrays are flat and contiguous and hold the tile's
        bands back to back in coding order: int64 magnitudes, bool signs,
        and the zeroed uint8 significance maps and significant-neighbour
        counts; ``heights``, ``widths`` and ``bases`` are each band's
        int64 shape and context base.  The last two buffers and the
        shared ``count0``/``count1`` context table update in place,
        exactly as the per-bit oracle coder would.  Returns one
        flushed codeword per plane, most significant first.

        The call mutates coder state, so it cannot be retried with a
        bigger buffer — the cap is a hard bound instead: the range coder
        emits at most 2 bytes per decision (each decision shrinks the
        range by at least 2^-16, each output byte grows it by 2^8), a
        plane codes at most 2 decisions per coefficient (significance +
        sign, or refinement), and the tile's cap is that per-plane bound
        summed over its planes.
        """
        _check_tile_buffers(
            magnitudes, signs, significant, neighbours,
            heights, widths, bases, count0, count1,
        )
        n_planes = max(max_plane + 1, 0)
        cap = n_planes * (4 * magnitudes.size + 64)
        out = np.empty(cap, dtype=np.uint8)
        seg_lens = np.empty(n_planes, dtype=np.int64)
        written = self._lib.rc_encode_tile(
            ctypes.c_void_p(magnitudes.ctypes.data),
            ctypes.c_void_p(signs.ctypes.data),
            ctypes.c_void_p(significant.ctypes.data),
            ctypes.c_void_p(neighbours.ctypes.data),
            ctypes.c_void_p(heights.ctypes.data),
            ctypes.c_void_p(widths.ctypes.data),
            ctypes.c_void_p(bases.ctypes.data),
            ctypes.c_int64(heights.size),
            ctypes.c_int64(max_plane),
            ctypes.c_void_p(count0.ctypes.data),
            ctypes.c_void_p(count1.ctypes.data),
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_int64(cap),
            ctypes.c_void_p(seg_lens.ctypes.data),
        )
        if written < 0:  # unreachable by the bound above
            raise RuntimeError("rc_encode_tile output exceeded hard bound")
        ends = np.cumsum(seg_lens).tolist()
        return [
            out[start:end].tobytes() for start, end in zip([0, *ends], ends)
        ]

    def decode_tile(
        self,
        datas: "list[bytes]",
        magnitudes: np.ndarray,
        signs: np.ndarray,
        significant: np.ndarray,
        neighbours: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        bases: np.ndarray,
        max_plane: int,
        count0: np.ndarray,
        count1: np.ndarray,
    ) -> bool:
        """Fused decode of a tile's kept plane segments, in one call.

        The mirror of :meth:`encode_tile` over the same band layout, with
        every buffer zeroed: ``datas[k]`` is the codeword of plane
        ``max_plane - k``, and the decoded bits land in the buffers and
        the shared ``count0``/``count1`` table in place.  Returns False
        when some segment's decoder ran more than 64 bytes past the end
        of that segment (a malformed stream); the segments after it are
        left undecoded.
        """
        _check_tile_buffers(
            magnitudes, signs, significant, neighbours,
            heights, widths, bases, count0, count1,
        )
        if len(datas) > max(max_plane + 1, 0):
            raise ValueError(
                f"{len(datas)} segments from plane {max_plane} reach "
                "below plane 0"
            )
        buf = np.frombuffer(b"".join(datas), dtype=np.uint8)
        seg_lens = np.fromiter(map(len, datas), np.int64, count=len(datas))
        status = self._lib.rc_decode_tile(
            ctypes.c_void_p(buf.ctypes.data),
            ctypes.c_void_p(seg_lens.ctypes.data),
            ctypes.c_int64(seg_lens.size),
            ctypes.c_void_p(magnitudes.ctypes.data),
            ctypes.c_void_p(signs.ctypes.data),
            ctypes.c_void_p(significant.ctypes.data),
            ctypes.c_void_p(neighbours.ctypes.data),
            ctypes.c_void_p(heights.ctypes.data),
            ctypes.c_void_p(widths.ctypes.data),
            ctypes.c_void_p(bases.ctypes.data),
            ctypes.c_int64(heights.size),
            ctypes.c_int64(max_plane),
            ctypes.c_void_p(count0.ctypes.data),
            ctypes.c_void_p(count1.ctypes.data),
        )
        return status == 0

    # -- DWT -----------------------------------------------------------
    def dwt_forward(
        self, stack: np.ndarray, levels: int, reversible: bool
    ) -> np.ndarray:
        """Fused multilevel 2-D analysis of a contiguous (n, h, w) stack.

        One call runs every level and both axes: LeGall 5/3 on an int64
        stack when ``reversible``, else CDF 9/7 on a float64 stack.
        Returns the flat subband buffer (``n*h*w`` values, finest level's
        HL/LH/HH stacks first, coarsest LL last — the layout documented
        in the C source and mirrored by ``dwt._subband_layout``).
        """
        dtype = np.int64 if reversible else np.float64
        if (
            stack.ndim != 3
            or stack.dtype != dtype
            or not stack.flags.c_contiguous
        ):
            raise ValueError(
                f"dwt_forward needs a C-contiguous (n, h, w) {dtype.__name__} "
                f"stack, got {stack.dtype} {stack.shape}"
            )
        n, h, w = stack.shape
        out = np.empty(stack.size, dtype=dtype)
        work = np.empty(4 * stack.size, dtype=dtype)
        lib = self._lib
        kernel = lib.dwt53_forward2d if reversible else lib.dwt97_forward2d
        kernel(
            ctypes.c_void_p(stack.ctypes.data),
            ctypes.c_int64(n),
            ctypes.c_int64(h),
            ctypes.c_int64(w),
            ctypes.c_int64(levels),
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_void_p(work.ctypes.data),
        )
        return out

    def dwt_inverse(
        self,
        coeffs: np.ndarray,
        shape: "tuple[int, int, int]",
        levels: int,
        reversible: bool,
    ) -> np.ndarray:
        """Inverse of :meth:`dwt_forward`: flat subband buffer to an
        ``shape`` = (n, h, w) stack, in one call."""
        dtype = np.int64 if reversible else np.float64
        n, h, w = shape
        if (
            coeffs.ndim != 1
            or coeffs.size != n * h * w
            or coeffs.dtype != dtype
            or not coeffs.flags.c_contiguous
        ):
            raise ValueError(
                f"dwt_inverse needs a contiguous {dtype.__name__} buffer of "
                f"{n * h * w} values, got {coeffs.dtype} {coeffs.shape}"
            )
        out = np.empty(shape, dtype=dtype)
        work = np.empty(4 * coeffs.size, dtype=dtype)
        lib = self._lib
        kernel = lib.dwt53_inverse2d if reversible else lib.dwt97_inverse2d
        kernel(
            ctypes.c_void_p(coeffs.ctypes.data),
            ctypes.c_int64(n),
            ctypes.c_int64(h),
            ctypes.c_int64(w),
            ctypes.c_int64(levels),
            ctypes.c_void_p(out.ctypes.data),
            ctypes.c_void_p(work.ctypes.data),
        )
        return out

    # -- rate model ----------------------------------------------------
    def magnitude_histogram(
        self, stack: np.ndarray, step: float, n_bins_cap: int = 64
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-bit histogram of floor(|stack| / step) per row.

        ``stack`` must be a contiguous (n_rows, size) float64 array.
        Returns ``(counts, tops)`` with counts shaped (n_rows,
        n_bins_cap); the caller trims to the occupied planes.
        """
        n_rows, size = stack.shape
        counts = np.zeros((n_rows, n_bins_cap), dtype=np.int64)
        tops = np.empty(n_rows, dtype=np.int64)
        self._lib.rc_magnitude_histogram(
            ctypes.c_void_p(stack.ctypes.data),
            ctypes.c_int64(n_rows),
            ctypes.c_int64(size),
            ctypes.c_double(step),
            ctypes.c_void_p(counts.ctypes.data),
            ctypes.c_int64(n_bins_cap),
            ctypes.c_void_p(tops.ctypes.data),
        )
        return counts, tops

    def magnitude_histogram_multi(
        self,
        ptrs: np.ndarray,
        rows: np.ndarray,
        sizes: np.ndarray,
        steps: np.ndarray,
        n_bins_cap: int = 64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`magnitude_histogram` over many row blocks.

        The block description comes prebuilt, so a caller that histograms
        the same blocks at many steps builds it once: ``ptrs``, ``rows``
        and ``sizes`` are int64 arrays holding each block's data address,
        row count and row length, and ``steps`` is its float64 step.  Each
        block must be a contiguous (rows, size) float64 array that the
        caller keeps alive.  The block results land consecutively in one
        ``(total_rows, n_bins_cap)`` counts matrix and ``(total_rows,)``
        tops vector, in block order.
        """
        n_blocks = len(ptrs)
        for array, dtype in (
            (ptrs, np.int64),
            (rows, np.int64),
            (sizes, np.int64),
            (steps, np.float64),
        ):
            if (
                array.dtype != dtype
                or array.shape != (n_blocks,)
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    "block arrays must be contiguous, one entry per block"
                )
        total = int(rows.sum())
        counts = np.zeros((total, n_bins_cap), dtype=np.int64)
        tops = np.empty(total, dtype=np.int64)
        self._lib.rc_magnitude_histogram_multi(
            ctypes.c_void_p(ptrs.ctypes.data),
            ctypes.c_void_p(rows.ctypes.data),
            ctypes.c_void_p(sizes.ctypes.data),
            ctypes.c_void_p(steps.ctypes.data),
            ctypes.c_int64(n_blocks),
            ctypes.c_void_p(counts.ctypes.data),
            ctypes.c_int64(n_bins_cap),
            ctypes.c_void_p(tops.ctypes.data),
        )
        return counts, tops

    def plane_walk_bits(
        self,
        counts: np.ndarray,
        tops: np.ndarray,
        sizes: np.ndarray,
        entropy_mat: np.ndarray,
    ) -> np.ndarray:
        """Descending plane walk (same accumulation order as numpy)."""
        n_rows, n_planes = counts.shape
        bits = np.empty(n_rows, dtype=np.float64)
        self._lib.rc_plane_walk_bits(
            ctypes.c_void_p(counts.ctypes.data),
            ctypes.c_void_p(tops.ctypes.data),
            ctypes.c_void_p(sizes.ctypes.data),
            ctypes.c_void_p(entropy_mat.ctypes.data),
            ctypes.c_int64(n_rows),
            ctypes.c_int64(n_planes),
            ctypes.c_void_p(bits.ctypes.data),
        )
        return bits

    def dequantize(
        self, q: np.ndarray, step: float, offset: float
    ) -> np.ndarray:
        """Fused dead-zone dequantize of a contiguous int32 array."""
        out = np.empty(q.shape, dtype=np.float64)
        self._lib.rc_dequantize(
            ctypes.c_void_p(q.ctypes.data),
            ctypes.c_int64(q.size),
            ctypes.c_double(step),
            ctypes.c_double(offset),
            ctypes.c_void_p(out.ctypes.data),
        )
        return out

    def dequantize_multi(
        self,
        blocks: "list[np.ndarray]",
        steps: "list[float]",
        offset: float,
    ) -> "list[np.ndarray]":
        """Batched :meth:`dequantize` over many contiguous int32 arrays.

        Returns one float64 array per block (views into a single shared
        buffer), each shaped like its input block.
        """
        n_blocks = len(blocks)
        ptrs = np.fromiter(
            (b.ctypes.data for b in blocks), dtype=np.int64, count=n_blocks
        )
        ns = np.fromiter(
            (b.size for b in blocks), dtype=np.int64, count=n_blocks
        )
        steps_arr = np.fromiter(steps, dtype=np.float64, count=n_blocks)
        total = int(ns.sum())
        out = np.empty(total, dtype=np.float64)
        self._lib.rc_dequantize_multi(
            ctypes.c_void_p(ptrs.ctypes.data),
            ctypes.c_void_p(ns.ctypes.data),
            ctypes.c_void_p(steps_arr.ctypes.data),
            ctypes.c_double(offset),
            ctypes.c_int64(n_blocks),
            ctypes.c_void_p(out.ctypes.data),
        )
        views = []
        off = 0
        for block in blocks:
            views.append(out[off : off + block.size].reshape(block.shape))
            off += block.size
        return views

    # -- imagery -------------------------------------------------------
    def fractal_field(
        self,
        lattices: np.ndarray,
        offsets: np.ndarray,
        cols: np.ndarray,
        rows: "tuple[np.ndarray, np.ndarray]",
        columns: "tuple[np.ndarray, np.ndarray]",
        amplitudes: np.ndarray,
        amplitude_sum: float,
        shape: "tuple[int, int]",
    ) -> np.ndarray:
        """One normalized fractal-noise field, every octave in one call.

        ``lattices`` holds every octave's float64 lattice back to back,
        octave ``k`` starting at ``offsets[k]`` with ``cols[k]`` values
        per row.  ``rows`` is each octave's per-pixel-row upper lattice
        row (int64) and Hermite weight (float64), back to back by
        octave; ``columns`` likewise per pixel column.  Bit-identical to
        the oracle's per-octave numpy sum (``fractal_field_reference`` in
        ``tests/sim_oracle.py``).
        """
        height, width = shape
        octaves = amplitudes.size
        y0, ty = rows
        x0, tx = columns
        for array, dtype, size in (
            (offsets, np.int64, octaves),
            (cols, np.int64, octaves),
            (y0, np.int64, octaves * height),
            (ty, np.float64, octaves * height),
            (x0, np.int64, octaves * width),
            (tx, np.float64, octaves * width),
            (amplitudes, np.float64, octaves),
            (lattices, np.float64, lattices.size),
        ):
            if (
                array.dtype != dtype
                or array.size != size
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    "fractal_field needs contiguous field plan arrays"
                )
        out = np.empty(shape, dtype=np.float64)
        scratch = np.empty(2 * width, dtype=np.float64)
        self._lib.fractal_field(
            ctypes.c_void_p(lattices.ctypes.data),
            ctypes.c_void_p(offsets.ctypes.data),
            ctypes.c_void_p(cols.ctypes.data),
            ctypes.c_void_p(y0.ctypes.data),
            ctypes.c_void_p(ty.ctypes.data),
            ctypes.c_void_p(x0.ctypes.data),
            ctypes.c_void_p(tx.ctypes.data),
            ctypes.c_void_p(amplitudes.ctypes.data),
            ctypes.c_int64(octaves),
            ctypes.c_double(amplitude_sum),
            ctypes.c_int64(height),
            ctypes.c_int64(width),
            ctypes.c_void_p(scratch.ctypes.data),
            ctypes.c_void_p(out.ctypes.data),
        )
        return out

    def render_band(
        self,
        surface: np.ndarray,
        gain: float,
        offset: float,
        alpha: "np.ndarray | None",
        cloud_value: float,
        noise: "np.ndarray | None",
    ) -> np.ndarray:
        """Render one band of a capture in place over ``surface``.

        ``surface`` is a writable, contiguous float64 image; it comes
        back as the observed band: illumination (``gain``, ``offset``,
        clip), the blend towards ``cloud_value`` with weight ``alpha``
        (zero off the cloud mask), the ``noise`` add and the final clip.
        ``alpha`` is None for a cloud-free capture and ``noise`` None for
        a noise-free one.  Bit-identical to the oracle's per-pass numpy
        render (``render_pixels_reference`` in ``tests/sim_oracle.py``).
        """
        for array in (surface, alpha, noise):
            if array is not None and (
                array.dtype != np.float64
                or array.shape != surface.shape
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    "render_band needs contiguous float64 arrays shaped "
                    f"like the surface {surface.shape}"
                )
        if not surface.flags.writeable or any(
            array is not None and np.may_share_memory(array, surface)
            for array in (alpha, noise)
        ):
            raise ValueError(
                "render_band renders in place: the surface must be "
                "writable and overlap no other input"
            )
        self._lib.render_band(
            _address(surface),
            ctypes.c_int64(surface.size),
            ctypes.c_double(gain),
            ctypes.c_double(offset),
            _address(alpha),
            ctypes.c_double(cloud_value),
            _address(noise),
        )
        return surface

    def base_map(
        self,
        texture: np.ndarray,
        classes: np.ndarray,
        reflectance: np.ndarray,
        amplitude: np.ndarray,
    ) -> np.ndarray:
        """A location's base map for one band, in place over ``texture``.

        ``texture`` is a writable, contiguous float64 field and
        ``classes`` the int8 terrain-class map of the same shape, each
        class an index into the float64 ``reflectance`` and ``amplitude``
        tables.  Every pixel becomes ``clip(reflectance[c] + amplitude[c]
        * (texture - 0.5) * 2.0)`` in one pass.  Bit-identical to the
        oracle's numpy gathers and passes (``base_map_reference`` in
        ``tests/sim_oracle.py``).
        """
        n_classes = reflectance.size
        for array, dtype, size in (
            (texture, np.float64, texture.size),
            (classes, np.int8, texture.size),
            (reflectance, np.float64, n_classes),
            (amplitude, np.float64, n_classes),
        ):
            if (
                array.dtype != dtype
                or array.size != size
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    "base_map needs a contiguous float64 texture, an int8 "
                    "class map of its size and two float64 class tables"
                )
        if not texture.flags.writeable:
            raise ValueError("base_map renders in place: texture is read-only")
        if classes.size and (
            int(classes.min()) < 0 or int(classes.max()) >= n_classes
        ):
            raise ValueError(f"class map indexes past {n_classes} classes")
        self._lib.base_map(
            _address(texture),
            _address(classes),
            ctypes.c_int64(texture.size),
            _address(reflectance),
            _address(amplitude),
        )
        return texture

    def change_blocks(
        self,
        lattices: np.ndarray,
        plans: "list",
        cells: "list[tuple[int, int, int, int]]",
        patch_amplitudes: np.ndarray,
        base: np.ndarray,
    ) -> "list[np.ndarray]":
        """Every missing change-cell block of one surface, in one call.

        ``plans`` are the distinct fractal-field plans of the batch
        (``noise.FieldPlan``, one per cell shape), all with the same
        octave amplitudes.  ``cells`` holds one ``(plan, start, row,
        column)`` tuple per block: the index of its plan, the start of
        its octave lattices in the float64 ``lattices`` buffer, and the
        pixel of the float64 ``base`` map under its top-left corner.
        Block ``i`` is its fractal field blended with the base map under
        the cell, ``clip(under + patch_amplitudes[i] * (field - 0.5))``.
        Returns one newly allocated array per block, which no other block
        shares.  Bit-identical to the oracle's per-cell numpy render
        (``cell_block_uncached`` in ``tests/sim_oracle.py``).
        """
        n_cells = len(cells)
        if (
            lattices.dtype != np.float64
            or lattices.ndim != 1
            or base.dtype != np.float64
            or base.ndim != 2
            or patch_amplitudes.dtype != np.float64
            or patch_amplitudes.shape != (n_cells,)
            or not all(
                array.flags.c_contiguous
                for array in (lattices, base, patch_amplitudes)
            )
        ):
            raise ValueError(
                "change_blocks needs contiguous float64 lattices, a 2-D "
                "base map and one patch amplitude per cell"
            )
        if not n_cells:
            return []
        table = np.array(
            [_plan_addresses(plan, plans[0]) for plan in plans],
            dtype=np.int64,
        )
        sizes = [int(plan.offsets[-1]) for plan in plans]
        rows, columns = base.shape
        blocks: list[np.ndarray] = []
        records: list[tuple[int, int, int, int, int]] = []
        for kind, start, top, left in cells:
            if not 0 <= kind < len(plans):
                raise ValueError(f"change_blocks cell names no plan {kind}")
            height, width = plans[kind].shape
            if (
                start < 0
                or start + sizes[kind] > lattices.size
                or top < 0
                or top + height > rows
                or left < 0
                or left + width > columns
            ):
                raise ValueError(
                    "change_blocks cell reaches past its lattices or the "
                    "base map"
                )
            block = np.empty((height, width))
            blocks.append(block)
            records.append((kind, start, top, left, block.ctypes.data))
        cell_table = np.array(records, dtype=np.int64)
        amplitudes = plans[0].amplitudes
        scratch = np.empty(2 * max(plan.shape[1] for plan in plans))
        self._lib.change_blocks(
            _address(lattices),
            _address(table),
            _address(cell_table),
            _address(patch_amplitudes),
            ctypes.c_int64(n_cells),
            _address(amplitudes),
            ctypes.c_int64(amplitudes.size),
            ctypes.c_double(plans[0].amplitude_sum),
            _address(base),
            ctypes.c_int64(columns),
            _address(scratch),
        )
        return blocks


def _plan_addresses(plan, first) -> "tuple[int, ...]":
    """A fractal-field plan's row of the change_blocks plan table.

    Checks the arrays the kernel reads (as :meth:`fractal_field` does)
    and that the plan shares ``first``'s octave amplitudes.
    """
    height, width = plan.shape
    octaves = plan.amplitudes.size
    arrays = (plan.offsets, plan.cols, *plan.rows, *plan.columns)
    expected = (
        (np.int64, octaves + 1),
        (np.int64, octaves),
        (np.int64, octaves * height),
        (np.float64, octaves * height),
        (np.int64, octaves * width),
        (np.float64, octaves * width),
    )
    for array, (dtype, size) in zip(arrays, expected):
        if (
            array.dtype != dtype
            or array.size != size
            or not array.flags.c_contiguous
        ):
            raise ValueError("change_blocks needs contiguous field plan arrays")
    if not np.array_equal(plan.amplitudes, first.amplitudes):
        raise ValueError("change_blocks plans differ in octave amplitudes")
    return (height, width, *(array.ctypes.data for array in arrays))


@functools.lru_cache(maxsize=None)
def load() -> CompiledKernels:
    """Build (first use) and load the kernels; cached once loaded.

    Raises:
        CodecError: No compiler found, a failed build, or a library that
            does not load.  Nothing is cached then, so a later call
            tries again.
    """
    lib_path = _build(_find_compiler())
    try:
        return CompiledKernels(ctypes.CDLL(str(lib_path)))
    except (OSError, AttributeError) as exc:
        raise CodecError(
            f"kernel library {lib_path} failed to load: {exc}"
        ) from exc
