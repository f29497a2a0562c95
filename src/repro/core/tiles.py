"""The geographic tile grid: the unit Earth+ reasons in.

Every Earth+ decision — changed or not, cloudy or not, download or not — is
made per 64x64-pixel tile (§3).  :class:`TileGrid` owns the index arithmetic:
partitioning an image into tiles (edge tiles may be smaller), reducing pixel
maps to per-tile statistics, and expanding tile masks back to pixel masks.

Invariant (property-tested): the tiles exactly partition the image — every
pixel belongs to exactly one tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class TileGrid:
    """Tiling of an image shape into fixed-size square tiles.

    Attributes:
        image_shape: The image's ``(height, width)``.
        tile_size: Tile edge in pixels.
    """

    image_shape: tuple[int, int]
    tile_size: int

    def __post_init__(self) -> None:
        height, width = self.image_shape
        if height <= 0 or width <= 0:
            raise ConfigError(f"image_shape must be positive, got {self.image_shape}")
        if self.tile_size <= 0:
            raise ConfigError(f"tile_size must be positive, got {self.tile_size}")

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Tile-grid dimensions ``(tiles_y, tiles_x)``."""
        height, width = self.image_shape
        return (
            (height + self.tile_size - 1) // self.tile_size,
            (width + self.tile_size - 1) // self.tile_size,
        )

    @property
    def n_tiles(self) -> int:
        """Total number of tiles."""
        tiles_y, tiles_x = self.grid_shape
        return tiles_y * tiles_x

    def tile_bounds(self, ty: int, tx: int) -> tuple[int, int, int, int]:
        """Pixel bounds ``(y0, y1, x0, x1)`` of tile ``(ty, tx)``.

        Raises:
            ConfigError: For out-of-range tile indices.
        """
        tiles_y, tiles_x = self.grid_shape
        if not (0 <= ty < tiles_y and 0 <= tx < tiles_x):
            raise ConfigError(
                f"tile ({ty},{tx}) out of grid {self.grid_shape}"
            )
        height, width = self.image_shape
        y0 = ty * self.tile_size
        x0 = tx * self.tile_size
        return y0, min(y0 + self.tile_size, height), x0, min(x0 + self.tile_size, width)

    def iter_tiles(self) -> Iterator[tuple[int, int]]:
        """Yield tile indices row-major."""
        tiles_y, tiles_x = self.grid_shape
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                yield ty, tx

    def tile_view(self, image: np.ndarray, ty: int, tx: int) -> np.ndarray:
        """Array view of tile ``(ty, tx)`` of ``image``."""
        self._check_image(image)
        y0, y1, x0, x1 = self.tile_bounds(ty, tx)
        return image[y0:y1, x0:x1]

    def reduce_mean(self, image: np.ndarray) -> np.ndarray:
        """Per-tile mean of a pixel map.

        Args:
            image: Array matching ``image_shape``.

        Returns:
            float64 array of shape ``grid_shape``.
        """
        self._check_image(image)
        if image.dtype != np.float64 or not image.flags.c_contiguous:
            image = image.astype(np.float64)
        return self._reduce(image, np.mean)

    def reduce_max(self, image: np.ndarray) -> np.ndarray:
        """Per-tile maximum of a pixel map."""
        self._check_image(image)
        return self._reduce(image.astype(np.float64), np.max)

    def reduce_any(self, mask: np.ndarray) -> np.ndarray:
        """Per-tile logical OR of a boolean pixel mask."""
        self._check_image(mask)
        return self._reduce(mask.astype(bool), np.any).astype(bool)

    def reduce_fraction(self, mask: np.ndarray) -> np.ndarray:
        """Per-tile fraction of True pixels of a boolean mask."""
        self._check_image(mask)
        return self._reduce(mask.astype(np.float64), np.mean)

    def _reduce(self, image: np.ndarray, func) -> np.ndarray:
        tiles_y, tiles_x = self.grid_shape
        height, width = self.image_shape
        tile = self.tile_size
        if height % tile == 0 and width % tile == 0:
            # Fast path: reshape into (ty, tile, tx, tile) blocks.
            blocks = image.reshape(tiles_y, tile, tiles_x, tile)
            return func(blocks, axis=(1, 3))
        out = np.zeros((tiles_y, tiles_x), dtype=np.result_type(image, np.float64))
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                y0, y1, x0, x1 = self.tile_bounds(ty, tx)
                out[ty, tx] = func(image[y0:y1, x0:x1])
        return out

    def reduce_mean_many(self, stack: np.ndarray) -> np.ndarray:
        """Per-tile mean of a ``(N, height, width)`` stack of pixel maps.

        Bit-identical per slice to :meth:`reduce_mean`: when the tile size
        divides the image the blocked reduction runs over the same elements
        in the same order per output cell; otherwise each slice falls back
        to the per-tile loop.

        Args:
            stack: Array of shape ``(N,) + image_shape``.

        Returns:
            float64 array of shape ``(N,) + grid_shape``.
        """
        if stack.ndim != 3 or tuple(stack.shape[1:]) != tuple(self.image_shape):
            raise ConfigError(
                f"stack shape {stack.shape} != (N,) + {self.image_shape}"
            )
        tiles_y, tiles_x = self.grid_shape
        height, width = self.image_shape
        tile = self.tile_size
        if height % tile == 0 and width % tile == 0:
            blocks = stack.astype(np.float64).reshape(
                stack.shape[0], tiles_y, tile, tiles_x, tile
            )
            return blocks.mean(axis=(2, 4))
        return np.stack([self.reduce_mean(plane) for plane in stack])

    def expand(self, tile_values: np.ndarray) -> np.ndarray:
        """Broadcast per-tile values back to pixel resolution.

        Args:
            tile_values: Array of shape ``grid_shape``.

        Returns:
            Array of ``image_shape`` with each tile's pixels set to its value.
        """
        if tuple(tile_values.shape) != self.grid_shape:
            raise ConfigError(
                f"tile_values shape {tile_values.shape} != grid {self.grid_shape}"
            )
        height, width = self.image_shape
        expanded = np.repeat(
            np.repeat(tile_values, self.tile_size, axis=0), self.tile_size, axis=1
        )
        return expanded[:height, :width]

    def tile_pixel_counts(self) -> np.ndarray:
        """Pixels per tile (edge tiles may be smaller)."""
        tiles_y, tiles_x = self.grid_shape
        out = np.zeros((tiles_y, tiles_x), dtype=np.int64)
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                y0, y1, x0, x1 = self.tile_bounds(ty, tx)
                out[ty, tx] = (y1 - y0) * (x1 - x0)
        return out

    def _check_image(self, image: np.ndarray) -> None:
        if tuple(image.shape) != tuple(self.image_shape):
            raise ConfigError(
                f"image shape {image.shape} != grid image shape {self.image_shape}"
            )
