"""Reference images: ground mosaic, on-board cache, and uplink deltas.

Three cooperating pieces implement §4.3's uplink-saving machinery:

* :class:`GroundMosaic` — the ground segment's best current estimate of a
  location's surface, per band: downloaded tiles overwrite their region,
  so the mosaic is fresh where things change and (correctly) old where they
  don't.  The freshest cloud-free reference the constellation can offer is
  read straight out of it.
* :class:`OnboardReferenceCache` — the satellite's copy of the (downsampled)
  reference per location/band, with its per-tile timestamps.
* :class:`ReferenceUpdate` — the wire format: either a full low-res image
  or (the default) just the low-res tiles that changed versus what the
  satellite already caches, serialized to real bytes so uplink accounting
  is honest.

Invariant (property-tested): applying a delta update to the cached reference
produces exactly the full new reference.

Each piece works in whole-array passes: a block mean reshapes the image
in place unless a side is ragged, the mosaic's low-res reference and its
validity come from one block count of the filled mask, the changed delta
tiles from one comparison over the whole low-res image, and the validity
bitmap is packed with numpy.  The per-element implementations they
replaced are the differential oracle in ``tests/sim_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tiles import TileGrid
from repro.codec.bitstream import BitReader, BitWriter
from repro.errors import ReferenceError_


def _edge_blocks(array: np.ndarray, ratio: int) -> np.ndarray:
    """The last two axes of ``array`` as float64 ``ratio`` x ``ratio`` blocks.

    Returns a ``(..., ceil(H/ratio), ratio, ceil(W/ratio), ratio)`` array.
    Ragged sides are edge-padded to whole blocks, which makes a float64
    copy.  A C-contiguous float64 array that divides into whole blocks is
    reshaped without a copy: the padded copy would hold the same values
    in the same memory order, so block means reduce identically.
    """
    *lead, height, width = array.shape
    out_h = (height + ratio - 1) // ratio
    out_w = (width + ratio - 1) // ratio
    pad_h = out_h * ratio - height
    pad_w = out_w * ratio - width
    if (
        pad_h
        or pad_w
        or array.dtype != np.float64
        or not array.flags.c_contiguous
    ):
        array = np.pad(
            array.astype(np.float64),
            [(0, 0)] * len(lead) + [(0, pad_h), (0, pad_w)],
            mode="edge",
        )
    return array.reshape(*lead, out_h, ratio, out_w, ratio)


def _block_fraction(mask: np.ndarray, ratio: int) -> np.ndarray:
    """Per-block fraction of True pixels in a 2-D boolean mask.

    Equal to :func:`downsample_image` of the mask as 0.0/1.0 floats over
    the same edge-padded blocks: a float sum of zeros and ones is exactly
    the block's count in any order, so the counts are summed as integers
    (block rows first, then along each row) and divided by the same
    ``ratio * ratio``.
    """
    height, width = mask.shape
    out_h = (height + ratio - 1) // ratio
    out_w = (width + ratio - 1) // ratio
    pad_h = out_h * ratio - height
    pad_w = out_w * ratio - width
    if pad_h or pad_w:
        mask = np.pad(mask, ((0, pad_h), (0, pad_w)), mode="edge")
    row_counts = np.add.reduce(
        mask.reshape(out_h, ratio, out_w * ratio), axis=1, dtype=np.int64
    )
    counts = np.add.reduce(row_counts.reshape(out_h, out_w, ratio), axis=2)
    return counts / (ratio * ratio)


def downsample_image(image: np.ndarray, ratio: int) -> np.ndarray:
    """Anti-aliased (block-mean) downsampling by an integer linear ratio.

    Edge blocks smaller than ``ratio`` are averaged over their true extent.

    Args:
        image: 2-D array.
        ratio: Linear downsampling factor (>= 1).

    Returns:
        Array of shape ``(ceil(H/ratio), ceil(W/ratio))``.
    """
    if ratio < 1:
        raise ReferenceError_(f"ratio must be >= 1, got {ratio}")
    if ratio == 1:
        return image.astype(np.float64).copy()
    return _edge_blocks(image, ratio).mean(axis=(1, 3))


def downsample_many(stack: np.ndarray, ratio: int) -> np.ndarray:
    """Batched :func:`downsample_image` over a ``(N, H, W)`` stack.

    Bit-identical per slice: the blocked mean reduces the same elements in
    the same order per output cell whether or not a leading batch axis is
    present.

    Args:
        stack: ``(N, H, W)`` array.
        ratio: Linear downsampling factor (>= 1).

    Returns:
        ``(N, ceil(H/ratio), ceil(W/ratio))`` float64 array.
    """
    if ratio < 1:
        raise ReferenceError_(f"ratio must be >= 1, got {ratio}")
    if stack.ndim != 3:
        raise ReferenceError_(
            f"expected (N, H, W) stack, got shape {stack.shape}"
        )
    if ratio == 1:
        return stack.astype(np.float64).copy()
    return _edge_blocks(stack, ratio).mean(axis=(2, 4))


def upsample_image(
    image_lr: np.ndarray, ratio: int, target_shape: tuple[int, int]
) -> np.ndarray:
    """Nearest-neighbour upsampling back to ``target_shape``."""
    if ratio < 1:
        raise ReferenceError_(f"ratio must be >= 1, got {ratio}")
    expanded = np.repeat(np.repeat(image_lr, ratio, axis=0), ratio, axis=1)
    height, width = target_shape
    if expanded.shape[0] < height or expanded.shape[1] < width:
        expanded = np.pad(
            expanded,
            (
                (0, max(0, height - expanded.shape[0])),
                (0, max(0, width - expanded.shape[1])),
            ),
            mode="edge",
        )
    return expanded[:height, :width]


def quantize_reference(image_lr: np.ndarray) -> np.ndarray:
    """Quantize a low-res reference to uint8 (its storage/wire format)."""
    return np.clip(np.rint(image_lr * 255.0), 0, 255).astype(np.uint8)


def dequantize_reference(stored: np.ndarray) -> np.ndarray:
    """Back to float [0, 1]."""
    return stored.astype(np.float64) / 255.0


@dataclass
class ReferenceUpdate:
    """One uplink message updating a satellite's cached reference.

    Attributes:
        location: Target location name.
        band: Target band name.
        t_days: Timestamp of the reference content.
        full: True when the message carries the complete low-res image
            (first upload, or delta updates disabled).
        lr_shape: Low-res image shape.
        tile_indices: For delta updates, the changed low-res tile indices.
        payload: The uint8 pixel payload (full image or changed tiles).
        lr_tile: Edge of the low-res update tile in low-res pixels.
        validity: Boolean low-res mask of pixels the ground has real
            content for; the satellite treats invalid reference pixels as
            "never seen — must download".  Shipped as a bitmap (1 bit per
            low-res pixel).
    """

    location: str
    band: str
    t_days: float
    full: bool
    lr_shape: tuple[int, int]
    tile_indices: list[tuple[int, int]]
    payload: np.ndarray
    lr_tile: int
    validity: np.ndarray | None = None

    def to_bytes(self) -> bytes:
        """Serialize for uplink byte accounting."""
        writer = BitWriter()
        loc_bytes = self.location.encode("utf-8")
        band_bytes = self.band.encode("utf-8")
        writer.write_uvarint(len(loc_bytes))
        writer.write_bytes(loc_bytes)
        writer.write_uvarint(len(band_bytes))
        writer.write_bytes(band_bytes)
        writer.write_uvarint(int(self.t_days * 1000))
        writer.write_uvarint(1 if self.full else 0)
        writer.write_uvarint(self.lr_shape[0])
        writer.write_uvarint(self.lr_shape[1])
        writer.write_uvarint(self.lr_tile)
        writer.write_uvarint(len(self.tile_indices))
        for ty, tx in self.tile_indices:
            writer.write_uvarint(ty)
            writer.write_uvarint(tx)
        if self.validity is None:
            writer.write_uvarint(0)
        else:
            writer.write_uvarint(1)
            writer.write_bitmap(self.validity)
        writer.write_bytes(self.payload.astype(np.uint8).tobytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReferenceUpdate":
        """Parse an uplink message."""
        reader = BitReader(data)
        location = reader.read_bytes(reader.read_uvarint()).decode("utf-8")
        band = reader.read_bytes(reader.read_uvarint()).decode("utf-8")
        t_days = reader.read_uvarint() / 1000.0
        full = bool(reader.read_uvarint())
        lr_shape = (reader.read_uvarint(), reader.read_uvarint())
        lr_tile = reader.read_uvarint()
        n_tiles = reader.read_uvarint()
        tile_indices = [
            (reader.read_uvarint(), reader.read_uvarint()) for _ in range(n_tiles)
        ]
        validity = None
        if reader.read_uvarint():
            validity = reader.read_bitmap(lr_shape[0] * lr_shape[1]).reshape(
                lr_shape
            )
        payload = np.frombuffer(
            reader.read_bytes(reader.remaining_bytes()), dtype=np.uint8
        )
        return cls(
            location=location,
            band=band,
            t_days=t_days,
            full=full,
            lr_shape=lr_shape,
            tile_indices=tile_indices,
            payload=payload,
            lr_tile=lr_tile,
            validity=validity,
        )

    @property
    def n_bytes(self) -> int:
        """Serialized size (the uplink cost of this update)."""
        return len(self.to_bytes())


@dataclass
class _CachedReference:
    t_days: float
    stored: np.ndarray  # uint8, low resolution
    validity: np.ndarray  # bool, low resolution


class OnboardReferenceCache:
    """The satellite's cache of low-res references per (location, band).

    Args:
        lr_tile: Edge of the low-res delta tile (low-res pixels).  Chosen so
            one low-res tile maps onto an integer block of full-res tiles.
    """

    def __init__(self, lr_tile: int = 8) -> None:
        if lr_tile < 1:
            raise ReferenceError_(f"lr_tile must be >= 1, got {lr_tile}")
        self.lr_tile = lr_tile
        self._store: dict[tuple[str, str], _CachedReference] = {}

    def has(self, location: str, band: str) -> bool:
        """Whether a reference is cached for (location, band)."""
        return (location, band) in self._store

    def get(self, location: str, band: str) -> tuple[float, np.ndarray]:
        """The cached ``(t_days, float image)`` for (location, band).

        Raises:
            ReferenceError_: When nothing is cached.
        """
        try:
            cached = self._store[(location, band)]
        except KeyError:
            raise ReferenceError_(
                f"no cached reference for {location}/{band}"
            ) from None
        return cached.t_days, dequantize_reference(cached.stored)

    def get_validity(self, location: str, band: str) -> np.ndarray:
        """Low-res validity mask of the cached reference.

        Invalid pixels mean "the ground has never seen this area clearly";
        the encoder must treat their tiles as changed.
        """
        try:
            cached = self._store[(location, band)]
        except KeyError:
            raise ReferenceError_(
                f"no cached reference for {location}/{band}"
            ) from None
        return cached.validity

    def age_days(self, location: str, band: str, now_days: float) -> float:
        """Age of the cached reference at ``now_days``."""
        t_days, _ = self.get(location, band)
        return now_days - t_days

    def apply_update(self, update: ReferenceUpdate) -> None:
        """Apply an uplinked update (full or delta) to the cache.

        Raises:
            ReferenceError_: If a delta arrives for an uncached reference or
                with mismatched geometry.
        """
        key = (update.location, update.band)
        new_validity = (
            update.validity.copy()
            if update.validity is not None
            else np.ones(update.lr_shape, dtype=bool)
        )
        expected_full = update.lr_shape[0] * update.lr_shape[1]
        if update.full:
            if update.payload.size != expected_full:
                raise ReferenceError_(
                    f"full update payload has {update.payload.size} pixels, "
                    f"expected {expected_full} (truncated upload?)"
                )
            stored = update.payload.reshape(update.lr_shape).copy()
            self._store[key] = _CachedReference(
                update.t_days, stored, new_validity
            )
            return
        if key not in self._store:
            raise ReferenceError_(
                f"delta update for uncached reference {key}"
            )
        cached = self._store[key]
        if cached.stored.shape != update.lr_shape:
            raise ReferenceError_(
                f"delta shape {update.lr_shape} != cached {cached.stored.shape}"
            )
        stored = cached.stored.copy()
        tile = update.lr_tile
        cursor = 0
        for ty, tx in update.tile_indices:
            y0, x0 = ty * tile, tx * tile
            y1 = min(y0 + tile, update.lr_shape[0])
            x1 = min(x0 + tile, update.lr_shape[1])
            need = (y1 - y0) * (x1 - x0)
            block = update.payload[cursor : cursor + need]
            if block.size != need:
                raise ReferenceError_(
                    f"delta payload exhausted at tile ({ty},{tx}): "
                    f"have {block.size} pixels, need {need}"
                )
            stored[y0:y1, x0:x1] = block.reshape(y1 - y0, x1 - x0)
            cursor += need
        self._store[key] = _CachedReference(update.t_days, stored, new_validity)

    def storage_bytes(self) -> int:
        """Total cache footprint in bytes (uint8 pixels)."""
        return sum(c.stored.size for c in self._store.values())

    def build_update(
        self,
        location: str,
        band: str,
        t_days: float,
        new_reference_lr: np.ndarray,
        validity: np.ndarray | None = None,
        delta: bool = True,
        tolerance: int = 1,
    ) -> ReferenceUpdate | None:
        """Construct the cheapest valid update towards ``new_reference_lr``.

        Returns None when the cached reference (content and validity) is
        already identical — no upload needed.  With ``delta=False`` or an
        empty cache the update carries the full image.

        Args:
            location: Target location.
            band: Target band.
            t_days: Content timestamp.
            new_reference_lr: New low-res reference (float [0, 1]).
            validity: Low-res mask of pixels with real content.
            delta: Allow tile-delta encoding against the cache.
            tolerance: Low-res tiles whose pixels differ from the cache by
                at most this many uint8 LSBs are treated as unchanged.
                Codec noise flickers the last bit of re-downloaded content;
                propagating that flicker would make every delta a full
                upload.  One LSB (~0.004) sits far below the change
                threshold theta, so detection is unaffected.
        """
        stored_new = quantize_reference(new_reference_lr)
        new_validity = (
            validity.copy()
            if validity is not None
            else np.ones(stored_new.shape, dtype=bool)
        )

        def full_update() -> ReferenceUpdate:
            return ReferenceUpdate(
                location=location,
                band=band,
                t_days=t_days,
                full=True,
                lr_shape=stored_new.shape,
                tile_indices=[],
                payload=stored_new.ravel().copy(),
                lr_tile=self.lr_tile,
                validity=new_validity,
            )

        key = (location, band)
        if not delta or key not in self._store:
            return full_update()
        cached = self._store[key]
        if cached.stored.shape != stored_new.shape:
            return full_update()
        indices, payload = self._delta_tiles(
            cached.stored, stored_new, tolerance
        )
        if not indices and np.array_equal(cached.validity, new_validity):
            return None
        return ReferenceUpdate(
            location=location,
            band=band,
            t_days=t_days,
            full=False,
            lr_shape=stored_new.shape,
            tile_indices=indices,
            payload=payload,
            lr_tile=self.lr_tile,
            validity=new_validity,
        )

    def _delta_tiles(
        self, stored_old: np.ndarray, stored_new: np.ndarray, tolerance: int
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Low-res tiles that differ by more than ``tolerance``, and their
        pixels.

        One comparison over the whole image: the absolute difference is
        zero-padded to whole tiles (a pad never exceeds a real pixel's
        difference) and reduced to each tile's maximum.  Returns the
        changed tiles' ``(ty, tx)`` in row-major order and the
        concatenation of their row-major pixels, ragged edge tiles at
        their true extent.
        """
        tile = self.lr_tile
        lr_h, lr_w = stored_new.shape
        tiles_y = (lr_h + tile - 1) // tile
        tiles_x = (lr_w + tile - 1) // tile
        diff = np.zeros((tiles_y * tile, tiles_x * tile), dtype=np.int16)
        np.subtract(
            stored_new, stored_old, out=diff[:lr_h, :lr_w], dtype=np.int16
        )
        np.abs(diff, out=diff)
        tile_max = diff.reshape(tiles_y, tile, tiles_x, tile).max(axis=(1, 3))
        changed = np.nonzero(tile_max > tolerance)
        indices = [(int(ty), int(tx)) for ty, tx in zip(*changed)]
        if not indices:
            return indices, np.empty(0, dtype=np.uint8)
        blocks = [
            stored_new[ty * tile : (ty + 1) * tile, tx * tile : (tx + 1) * tile]
            for ty, tx in indices
        ]
        return indices, np.concatenate([block.ravel() for block in blocks])


class GroundMosaic:
    """Ground-side best-estimate surface per (location, band).

    Downloaded tiles overwrite their region with a timestamp; the mosaic
    doubles as the reference-selection source (its downsampled form is what
    gets uplinked) and as the "what the ground believes" image for PSNR
    scoring.
    """

    def __init__(self, image_shape: tuple[int, int], tile_size: int) -> None:
        self.grid = TileGrid(image_shape, tile_size)
        self._images: dict[tuple[str, str], np.ndarray] = {}
        self._tile_times: dict[tuple[str, str], np.ndarray] = {}
        self._filled: dict[tuple[str, str], np.ndarray] = {}

    def has(self, location: str, band: str) -> bool:
        """Whether any content exists for (location, band)."""
        return (location, band) in self._images

    def image(self, location: str, band: str) -> np.ndarray:
        """Current mosaic image (float [0, 1]).

        Raises:
            ReferenceError_: When no content has been ingested yet.
        """
        try:
            return self._images[(location, band)]
        except KeyError:
            raise ReferenceError_(
                f"no mosaic content for {location}/{band}"
            ) from None

    def tile_ages(self, location: str, band: str, now_days: float) -> np.ndarray:
        """Per-tile age (days) of the mosaic content."""
        times = self._tile_times.get((location, band))
        if times is None:
            raise ReferenceError_(f"no mosaic content for {location}/{band}")
        return now_days - times

    def ingest_tiles(
        self,
        location: str,
        band: str,
        t_days: float,
        image: np.ndarray,
        tile_mask: np.ndarray,
        pixel_valid: np.ndarray | None = None,
    ) -> None:
        """Overwrite the masked tiles with content from ``image``.

        Args:
            location: Location name.
            band: Band name.
            t_days: Content timestamp.
            image: Full-resolution source (typically the decoded download).
            tile_mask: Boolean tile grid of tiles to take.
            pixel_valid: Optional pixel mask; only True pixels are written
                (cloudy pixels keep the older, cloud-free mosaic content —
                this is what keeps references cloud-free).
        """
        key = (location, band)
        if key not in self._images:
            self._images[key] = np.zeros(self.grid.image_shape, dtype=np.float64)
            self._tile_times[key] = np.full(self.grid.grid_shape, -np.inf)
            self._filled[key] = np.zeros(self.grid.image_shape, dtype=bool)
        target = self._images[key]
        times = self._tile_times[key]
        filled = self._filled[key]
        for ty, tx in zip(*np.nonzero(tile_mask)):
            y0, y1, x0, x1 = self.grid.tile_bounds(int(ty), int(tx))
            if pixel_valid is None:
                target[y0:y1, x0:x1] = image[y0:y1, x0:x1]
                filled[y0:y1, x0:x1] = True
                times[ty, tx] = t_days
                continue
            valid_block = pixel_valid[y0:y1, x0:x1]
            if not valid_block.any():
                continue
            block = target[y0:y1, x0:x1]
            block[valid_block] = image[y0:y1, x0:x1][valid_block]
            filled[y0:y1, x0:x1] |= valid_block
            times[ty, tx] = t_days

    def filled_mask(self, location: str, band: str) -> np.ndarray:
        """Pixels that have ever been filled by a download."""
        mask = self._filled.get((location, band))
        if mask is None:
            raise ReferenceError_(f"no mosaic content for {location}/{band}")
        return mask

    def low_res_reference(
        self, location: str, band: str, downsample: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The mosaic downsampled to reference resolution, and its validity.

        Each low-res pixel averages only *filled* mosaic pixels (never-seen
        pixels carry no information).  A low-res pixel is valid where its
        block has any filled content; completely-unfilled blocks are zero
        and invalid.  One block count of the filled mask weighs both.
        Never-filled pixels still hold the 0.0 the image was created
        with, so the image's block means are those of its filled pixels
        alone, over the whole block.

        Returns:
            ``(reference, validity)``: float64 and bool low-res arrays.
        """
        image = self.image(location, band)
        filled = self.filled_mask(location, band)
        weighted = downsample_image(image, downsample)
        weight = _block_fraction(filled, downsample)
        validity = weight > 1e-9
        reference = np.zeros_like(weighted)
        np.divide(weighted, weight, out=reference, where=validity)
        return reference, validity
