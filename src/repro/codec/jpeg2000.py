"""Tile-based JPEG-2000-style image codec with ROI and quality layers.

This is the codec the Earth+ pipeline and the baselines encode with.  It
mirrors the three Kakadu features the paper relies on:

* **tile independence** — each 64x64 tile (configurable) is transformed,
  quantized and entropy-coded on its own, so a region-of-interest is simply
  a subset of tiles (the paper's changed tiles);
* **rate targeting** — post-compression rate-distortion truncation picks a
  per-tile bit-plane depth so the whole image meets a byte budget (the
  paper's ``gamma`` bits-per-pixel knob);
* **quality layers** — the embedded per-tile streams are split at multiple
  truncation points, so the ground can download fewer layers when the
  downlink dips (§5, "Handling bandwidth fluctuation").

The container serializes to real bytes (:meth:`EncodedImage.to_bytes`), so
every downlink number in the evaluation is counted off an actual bitstream.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.codec import registry
from repro.codec.bitplane import PlaneSegment
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.dwt import Wavelet, WaveletCoeffs, forward_dwt2d, inverse_dwt2d
from repro.codec.quantize import (
    QuantizerSpec,
    dequantize_coeffs,
    max_bitplane,
    quantize_coeffs,
)
from repro.errors import BitstreamError, CodecError, RateControlError

_MAGIC = b"EPJ2"


def subband_shapes(
    shape: tuple[int, int], levels: int
) -> list[tuple[str, int, tuple[int, int]]]:
    """Subband ``(name, level, shape)`` list matching ``forward_dwt2d``.

    Shapes follow the ceil/floor halving of the lifting split: the low-pass
    branch keeps ``ceil(n/2)`` samples and the high-pass ``floor(n/2)``.
    """
    sizes = [shape]
    for _ in range(levels):
        height, width = sizes[-1]
        sizes.append(((height + 1) // 2, (width + 1) // 2))
    out: list[tuple[str, int, tuple[int, int]]] = [("LL", levels, sizes[levels])]
    for level in range(levels, 0, -1):
        height, width = sizes[level - 1]
        ll_h, ll_w = (height + 1) // 2, (width + 1) // 2
        hi_h, hi_w = height // 2, width // 2
        out.append(("HL", level, (ll_h, hi_w)))
        out.append(("LH", level, (hi_h, ll_w)))
        out.append(("HH", level, (hi_h, hi_w)))
    return out


def effective_levels(shape: tuple[int, int], requested: int) -> int:
    """Decomposition depth actually usable for a (possibly small) tile."""
    shortest = max(1, min(shape))
    feasible = int(math.floor(math.log2(shortest))) if shortest > 1 else 1
    return max(1, min(requested, max(1, feasible)))


@dataclass(frozen=True)
class CodecConfig:
    """Static codec parameters.

    Attributes:
        tile_size: Tile edge in pixels (the paper uses 64).
        levels: Requested DWT levels per tile.
        wavelet: Filter; LeGall 5/3 enables the lossless path.
        bit_depth: Integer precision for the lossless path.
        base_step: Default quantizer base step for the lossy path.
    """

    tile_size: int = 64
    levels: int = 3
    wavelet: Wavelet = Wavelet.CDF97
    bit_depth: int = 10
    base_step: float = 1.0 / 512.0

    def __post_init__(self) -> None:
        if self.tile_size <= 0:
            raise CodecError(f"tile_size must be positive, got {self.tile_size}")
        if self.levels < 1:
            raise CodecError(f"levels must be >= 1, got {self.levels}")
        if not 1 <= self.bit_depth <= 16:
            raise CodecError(f"bit_depth must be in 1..16, got {self.bit_depth}")
        if self.base_step <= 0:
            raise CodecError(f"base_step must be positive, got {self.base_step}")

    @property
    def lossless(self) -> bool:
        """True when configured for the reversible 5/3 path."""
        return self.wavelet is Wavelet.LEGALL53


@dataclass
class EncodedTile:
    """One encoded tile: embedded plane segments plus RD bookkeeping.

    Attributes:
        tile_index: ``(ty, tx)`` grid position.
        max_plane: Highest occupied magnitude bit-plane (-1 if all zero).
        segments: Plane segments, most significant first.
        layer_planes: Number of planes included up to and including each
            layer (cumulative, non-decreasing).
        rd_bytes: Cumulative byte cost at each truncation depth
            (index k = top k planes kept).
        rd_distortion: Pixel-domain distortion estimate at each depth.
    """

    tile_index: tuple[int, int]
    max_plane: int
    segments: list[PlaneSegment]
    layer_planes: list[int] = field(default_factory=list)
    rd_bytes: list[int] = field(default_factory=list)
    rd_distortion: list[float] = field(default_factory=list)

    @property
    def planes_available(self) -> int:
        return len(self.segments)


@dataclass
class EncodedImage:
    """A complete encoded image (container + per-tile streams).

    Attributes:
        shape: Original image shape.
        config: Codec parameters used.
        base_step: Quantizer base step actually used.
        roi: Boolean tile grid of encoded tiles.
        tiles: Encoded tiles, row-major over the ROI.
        n_layers: Number of quality layers.
    """

    shape: tuple[int, int]
    config: CodecConfig
    base_step: float
    roi: np.ndarray
    tiles: list[EncodedTile]
    n_layers: int

    def layer_bytes(self, layer: int) -> int:
        """Payload bytes contributed by quality layer ``layer`` (0-based)."""
        if not 0 <= layer < self.n_layers:
            raise CodecError(f"layer {layer} out of range 0..{self.n_layers - 1}")
        total = 0
        for tile in self.tiles:
            lo = tile.layer_planes[layer - 1] if layer > 0 else 0
            hi = tile.layer_planes[layer]
            total += sum(len(s.data) for s in tile.segments[lo:hi])
        return total

    def payload_bytes(self, layers: int | None = None) -> int:
        """Total segment payload bytes for the first ``layers`` layers."""
        layers = self.n_layers if layers is None else layers
        return sum(self.layer_bytes(layer) for layer in range(layers))

    @property
    def total_bytes(self) -> int:
        """Full serialized size, header included."""
        return len(self.to_bytes())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize container + payload to a real byte string."""
        writer = BitWriter()
        writer.write_bytes(_MAGIC)
        writer.write_uvarint(self.shape[0])
        writer.write_uvarint(self.shape[1])
        writer.write_uvarint(self.config.tile_size)
        writer.write_uvarint(self.config.levels)
        writer.write_uvarint(0 if self.config.wavelet is Wavelet.CDF97 else 1)
        writer.write_uvarint(self.config.bit_depth)
        writer.write_uvarint(self.n_layers)
        writer.write_bytes(struct.pack("<d", self.base_step))
        roi_flat = self.roi.ravel()
        writer.write_uvarint(roi_flat.size)
        for bit in roi_flat:
            writer.write_bit(int(bit))
        writer.align()
        writer.write_uvarint(len(self.tiles))
        for tile in self.tiles:
            writer.write_uvarint(tile.tile_index[0])
            writer.write_uvarint(tile.tile_index[1])
            writer.write_uvarint(tile.max_plane + 1)
            writer.write_uvarint(len(tile.segments))
            for cum in tile.layer_planes:
                writer.write_uvarint(cum)
            for segment in tile.segments:
                writer.write_uvarint(len(segment.data))
        for tile in self.tiles:
            for segment in tile.segments:
                writer.write_bytes(segment.data)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedImage":
        """Parse a container produced by :meth:`to_bytes`."""
        reader = BitReader(data)
        if reader.read_bytes(4) != _MAGIC:
            raise BitstreamError("bad magic; not an EncodedImage container")
        height = reader.read_uvarint()
        width = reader.read_uvarint()
        tile_size = reader.read_uvarint()
        levels = reader.read_uvarint()
        wavelet = Wavelet.CDF97 if reader.read_uvarint() == 0 else Wavelet.LEGALL53
        bit_depth = reader.read_uvarint()
        n_layers = reader.read_uvarint()
        (base_step,) = struct.unpack("<d", reader.read_bytes(8))
        # A corrupted header must surface as BitstreamError, never as a
        # config/validation error or a pathological allocation.
        try:
            config = CodecConfig(
                tile_size=tile_size,
                levels=levels,
                wavelet=wavelet,
                bit_depth=bit_depth,
                base_step=base_step if base_step > 0 else 1.0 / 512.0,
            )
        except CodecError as exc:
            raise BitstreamError(f"corrupt container header: {exc}") from exc
        if n_layers < 1:
            raise BitstreamError(f"corrupt layer count {n_layers}")
        roi_size = reader.read_uvarint()
        tiles_y = (height + tile_size - 1) // tile_size
        tiles_x = (width + tile_size - 1) // tile_size
        if roi_size != tiles_y * tiles_x:
            raise BitstreamError("ROI bitmap size mismatch")
        if roi_size > reader.remaining_bytes() * 8:
            raise BitstreamError("truncated ROI bitmap")
        roi = np.zeros(roi_size, dtype=bool)
        for idx in range(roi_size):
            roi[idx] = bool(reader.read_bit())
        reader.align()
        roi = roi.reshape(tiles_y, tiles_x)
        n_tiles = reader.read_uvarint()
        metas = []
        for _ in range(n_tiles):
            ty = reader.read_uvarint()
            tx = reader.read_uvarint()
            max_plane = reader.read_uvarint() - 1
            # Magnitudes are reconstructed into int64 planes; anything
            # deeper than 62 is unreachable from a real encode and would
            # overflow downstream, so treat it as corruption here.
            if max_plane > 62:
                raise BitstreamError(f"corrupt max_plane {max_plane}")
            n_segments = reader.read_uvarint()
            if n_segments > max_plane + 1:
                raise BitstreamError(
                    f"corrupt tile: {n_segments} segments for "
                    f"max_plane {max_plane}"
                )
            layer_planes = [reader.read_uvarint() for _ in range(n_layers)]
            seg_lens = [reader.read_uvarint() for _ in range(n_segments)]
            metas.append((ty, tx, max_plane, layer_planes, seg_lens))
        tiles = []
        for ty, tx, max_plane, layer_planes, seg_lens in metas:
            segments = []
            for offset, seg_len in enumerate(seg_lens):
                segments.append(
                    PlaneSegment(
                        plane=max_plane - offset,
                        data=reader.read_bytes(seg_len),
                    )
                )
            tiles.append(
                EncodedTile(
                    tile_index=(ty, tx),
                    max_plane=max_plane,
                    segments=segments,
                    layer_planes=layer_planes,
                )
            )
        return cls(
            shape=(height, width),
            config=config,
            base_step=base_step,
            roi=roi,
            tiles=tiles,
            n_layers=n_layers,
        )


class ImageCodec:
    """Encoder/decoder facade over the tile pipeline.

    Args:
        config: Codec parameters; defaults match the paper's setup
            (64x64 tiles, 3-level 9/7).
        backend: Entropy-coding engine name from the backend registry
            (``"compiled"``, or ``"real"``, which names it).  ``None``
            (default) means ``"real"``.  Every registered engine is
            bit-exact against the per-bit oracle: identical bitstreams,
            identical reconstructions.
    """

    def __init__(
        self,
        config: CodecConfig | None = None,
        backend: str | None = None,
    ) -> None:
        self.config = config if config is not None else CodecConfig()
        resolved = registry.resolve(explicit=backend)
        self.backend = resolved.name
        self._coder_cls = resolved.coder_factory

    # ------------------------------------------------------------------
    # Tiling helpers
    # ------------------------------------------------------------------
    def tile_grid_shape(self, shape: tuple[int, int]) -> tuple[int, int]:
        """Tile-grid dimensions for an image shape."""
        tile = self.config.tile_size
        return (
            (shape[0] + tile - 1) // tile,
            (shape[1] + tile - 1) // tile,
        )

    def _tile_bounds(
        self, shape: tuple[int, int], ty: int, tx: int
    ) -> tuple[int, int, int, int]:
        tile = self.config.tile_size
        y0, x0 = ty * tile, tx * tile
        return y0, min(y0 + tile, shape[0]), x0, min(x0 + tile, shape[1])

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(
        self,
        image: np.ndarray,
        target_bytes: int | None = None,
        base_step: float | None = None,
        roi: np.ndarray | None = None,
        n_layers: int = 1,
    ) -> EncodedImage:
        """Encode ``image`` (float values in [0, 1]).

        Args:
            image: 2-D float array.
            target_bytes: Optional payload budget; when given, per-tile
                bit-plane depths are chosen by greedy rate-distortion
                optimization to fit it.  Without it every occupied plane is
                kept (quality set purely by ``base_step``).
            base_step: Quantizer base step override (lossy path only).
            roi: Optional boolean tile grid; only True tiles are encoded.
            n_layers: Number of quality layers to split the stream into.

        Returns:
            The encoded image.

        Raises:
            CodecError: On shape/ROI inconsistencies.
        """
        if image.ndim != 2:
            raise CodecError(f"expected 2-D image, got shape {image.shape}")
        if n_layers < 1:
            raise CodecError(f"n_layers must be >= 1, got {n_layers}")
        grid = self.tile_grid_shape(image.shape)
        if roi is None:
            roi = np.ones(grid, dtype=bool)
        if tuple(roi.shape) != grid:
            raise CodecError(f"roi shape {roi.shape} != tile grid {grid}")
        step = base_step if base_step is not None else self.config.base_step
        tiles = []
        for ty in range(grid[0]):
            for tx in range(grid[1]):
                if not roi[ty, tx]:
                    continue
                y0, y1, x0, x1 = self._tile_bounds(image.shape, ty, tx)
                tiles.append(
                    self._encode_tile(image[y0:y1, x0:x1], (ty, tx), step)
                )
        self._allocate(tiles, target_bytes, n_layers)
        return EncodedImage(
            shape=image.shape,
            config=self.config,
            base_step=step,
            roi=roi.copy(),
            tiles=tiles,
            n_layers=n_layers,
        )

    def _encode_tile(
        self, tile_img: np.ndarray, index: tuple[int, int], step: float
    ) -> EncodedTile:
        levels = effective_levels(tile_img.shape, self.config.levels)
        if self.config.lossless:
            scale = (1 << self.config.bit_depth) - 1
            ints = np.rint(tile_img * scale).astype(np.int64)
            coeffs = forward_dwt2d(ints, levels, Wavelet.LEGALL53)
            quantized = [
                (name, level, band.astype(np.int64))
                for name, level, band in coeffs.subbands()
            ]
            steps = {(name, level): 1.0 for name, level, _ in quantized}
        else:
            coeffs = forward_dwt2d(
                tile_img.astype(np.float64), levels, Wavelet.CDF97
            )
            spec = QuantizerSpec(base_step=step)
            quantized = quantize_coeffs(coeffs, spec)
            steps = {
                (name, level): spec.step_for(name, level)
                for name, level, _ in quantized
            }
        top = max_bitplane(quantized)
        band_shapes = [
            (f"{name}{level}", level, band.shape)
            for name, level, band in quantized
        ]
        coder = self._coder_cls(
            [(key, level, shape) for key, level, shape in band_shapes]
        )
        bands = [band for _, _, band in quantized]
        segments = coder.encode(bands, top) if top >= 0 else []
        rd_bytes = [0]
        for segment in segments:
            rd_bytes.append(rd_bytes[-1] + len(segment.data))
        rd_distortion = self._distortion_curve(quantized, steps, top)
        return EncodedTile(
            tile_index=index,
            max_plane=top,
            segments=segments,
            rd_bytes=rd_bytes,
            rd_distortion=rd_distortion,
        )

    @staticmethod
    def _distortion_curve(
        quantized: list[tuple[str, int, np.ndarray]],
        steps: dict[tuple[str, int], float],
        top: int,
    ) -> list[float]:
        """Pixel-domain SSE estimate at each truncation depth 0..top+1.

        Keeping ``kept`` planes drops the low ``top + 1 - kept`` bits of
        every magnitude.  Each subband takes its dropped bits for every
        depth in one pass (one row per depth, in memory order) and sums
        each row with numpy's pairwise sum, exactly as a per-depth
        ``np.sum`` over the subband would; the subband totals accumulate
        in subband order.  Every float therefore equals the per-depth loop
        (``distortion_curve_reference`` in ``tests/sim_oracle.py``).
        """
        shifts = np.arange(top + 1, -1, -1, dtype=np.int64)
        low_bits = (np.left_shift(1, shifts) - 1)[:, None]
        curve = np.zeros(top + 2, dtype=np.float64)
        for name, level, band in quantized:
            magnitude = np.abs(band).astype(np.int64).ravel(order="K")
            diff = (magnitude & low_bits).astype(np.float64)
            diff *= steps[(name, level)]
            curve += np.sum(diff * diff, axis=1)
        return curve.tolist()

    def _allocate(
        self,
        tiles: list[EncodedTile],
        target_bytes: int | None,
        n_layers: int,
    ) -> None:
        """Choose per-tile truncation depths and layer boundaries."""
        if target_bytes is None:
            for tile in tiles:
                keep = tile.planes_available
                tile.layer_planes = self._spread_layers(keep, n_layers)
            return
        if target_bytes < 0:
            raise RateControlError(f"target_bytes must be >= 0, got {target_bytes}")
        # Greedy marginal-utility allocation over concave-ified RD curves.
        kept = [0] * len(tiles)
        spent = 0
        # Each candidate move: add one more plane to tile i.
        import heapq

        heap: list[tuple[float, int]] = []

        def push(i: int) -> None:
            k = kept[i]
            tile = tiles[i]
            if k >= tile.planes_available:
                return
            delta_bytes = tile.rd_bytes[k + 1] - tile.rd_bytes[k]
            delta_dist = tile.rd_distortion[k] - tile.rd_distortion[k + 1]
            utility = delta_dist / max(1, delta_bytes)
            heapq.heappush(heap, (-utility, i))

        for i in range(len(tiles)):
            push(i)
        while heap:
            _, i = heapq.heappop(heap)
            tile = tiles[i]
            k = kept[i]
            if k >= tile.planes_available:
                continue
            delta_bytes = tile.rd_bytes[k + 1] - tile.rd_bytes[k]
            if spent + delta_bytes > target_bytes:
                continue
            kept[i] = k + 1
            spent += delta_bytes
            push(i)
        for tile, keep in zip(tiles, kept):
            tile.segments = tile.segments[:keep]
            tile.layer_planes = self._spread_layers(keep, n_layers)

    @staticmethod
    def _spread_layers(total_planes: int, n_layers: int) -> list[int]:
        """Cumulative plane counts per layer, front-loading early layers."""
        if n_layers == 1:
            return [total_planes]
        out = []
        for layer in range(1, n_layers + 1):
            out.append(int(round(total_planes * layer / n_layers)))
        out[-1] = total_planes
        # Ensure non-decreasing (rounding can stall, never regress).
        for idx in range(1, n_layers):
            out[idx] = max(out[idx], out[idx - 1])
        return out

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self,
        encoded: EncodedImage,
        layers: int | None = None,
        background: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode an image, optionally stopping after ``layers`` layers.

        Args:
            encoded: The encoded container.
            layers: How many quality layers to use (default: all).
            background: Optional full-size image supplying pixels for tiles
                outside the ROI (the Earth+ ground station passes the
                reference-based reconstruction here).  Non-ROI pixels are 0
                when omitted.

        Returns:
            float64 image in [0, 1].
        """
        layers = encoded.n_layers if layers is None else layers
        if not 1 <= layers <= encoded.n_layers:
            raise CodecError(
                f"layers must be in 1..{encoded.n_layers}, got {layers}"
            )
        if background is not None:
            if background.shape != encoded.shape:
                raise CodecError(
                    f"background shape {background.shape} != image {encoded.shape}"
                )
            out = background.astype(np.float64).copy()
        else:
            out = np.zeros(encoded.shape, dtype=np.float64)
        for tile in encoded.tiles:
            ty, tx = tile.tile_index
            y0, y1, x0, x1 = self._tile_bounds(encoded.shape, ty, tx)
            n_planes = tile.layer_planes[layers - 1] if tile.layer_planes else len(
                tile.segments
            )
            out[y0:y1, x0:x1] = self._decode_tile(
                (y1 - y0, x1 - x0), tile, n_planes, encoded.base_step
            )
        return out

    def _decode_tile(
        self,
        shape: tuple[int, int],
        tile: EncodedTile,
        n_planes: int,
        base_step: float,
    ) -> np.ndarray:
        levels = effective_levels(shape, self.config.levels)
        shapes = subband_shapes(shape, levels)
        if tile.max_plane < 0:
            # All-zero tile: mid-grey zero reconstruction.
            return np.zeros(shape, dtype=np.float64)
        coder = self._coder_cls(
            [(f"{name}{level}", level, shp) for name, level, shp in shapes]
        )
        decoded = coder.decode(tile.segments[:n_planes], tile.max_plane)
        if self.config.lossless and n_planes >= tile.max_plane + 1:
            # Exact reconstruction path.
            triples = []
            for (name, level, _), band in zip(shapes, decoded):
                triples.append((name, level, band))
            coeffs = self._triples_to_coeffs(triples, shape, levels, Wavelet.LEGALL53)
            ints = inverse_dwt2d(coeffs)
            scale = (1 << self.config.bit_depth) - 1
            return ints.astype(np.float64) / scale
        spec = QuantizerSpec(base_step=base_step if not self.config.lossless else 1.0)
        truncated_planes = tile.max_plane + 1 - n_planes
        triples_q = []
        for (name, level, _), band in zip(shapes, decoded):
            triples_q.append((name, level, band.astype(np.int64)))
        dequantized = dequantize_coeffs(
            triples_q,
            spec,
            reconstruction_offset=0.5 * (2**truncated_planes if truncated_planes else 1),
        )
        coeffs = self._triples_to_coeffs(
            dequantized, shape, levels, self.config.wavelet
        )
        recon = inverse_dwt2d(coeffs)
        if self.config.lossless:
            scale = (1 << self.config.bit_depth) - 1
            recon = recon / scale
        return np.clip(recon, 0.0, 1.0)

    @staticmethod
    def _triples_to_coeffs(
        triples: list[tuple[str, int, np.ndarray]],
        shape: tuple[int, int],
        levels: int,
        wavelet: Wavelet,
    ) -> WaveletCoeffs:
        approx = triples[0][2]
        details = []
        for idx in range(levels):
            hl = triples[1 + idx * 3][2]
            lh = triples[2 + idx * 3][2]
            hh = triples[3 + idx * 3][2]
            details.append((hl, lh, hh))
        return WaveletCoeffs(
            approx=approx, details=details, shape=shape, wavelet=wavelet
        )

