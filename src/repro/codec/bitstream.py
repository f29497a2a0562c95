"""Bit-level and byte-level serialization primitives.

:class:`BitWriter` / :class:`BitReader` provide MSB-first bit packing plus
unsigned varints, used by the codec container format
(:mod:`repro.codec.jpeg2000`) and the Earth+ reference-update wire format
(:mod:`repro.core.reference`).  Boolean bitmaps (the codec's ROI, the
reference validity mask) are packed whole with numpy
(:meth:`BitWriter.write_bitmap`, :meth:`BitReader.read_bitmap`): the bytes
are those of one :meth:`BitWriter.write_bit` per element followed by
:meth:`BitWriter.align`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BitstreamError


class BitWriter:
    """Accumulates bits MSB-first into a growing byte buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._current = 0
        self._nbits = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._current = (self._current << 1) | (bit & 1)
        self._nbits += 1
        if self._nbits == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._nbits = 0

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value`` MSB-first.

        Args:
            value: Non-negative integer to write.
            count: Number of bits (0-64).

        Raises:
            BitstreamError: If ``value`` does not fit in ``count`` bits.
        """
        if count < 0 or count > 64:
            raise BitstreamError(f"bit count must be 0-64, got {count}")
        if value < 0 or (count < 64 and value >> count):
            raise BitstreamError(f"value {value} does not fit in {count} bits")
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_uvarint(self, value: int) -> None:
        """Append an unsigned LEB128-style varint (7 bits per byte).

        Varints must start byte-aligned; call after :meth:`align` or only on
        byte boundaries.
        """
        if self._nbits != 0:
            raise BitstreamError("varints must be byte-aligned; call align() first")
        if value < 0:
            raise BitstreamError(f"uvarint value must be >= 0, got {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._bytes.append(byte | 0x80)
            else:
                self._bytes.append(byte)
                return

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes (must be byte-aligned)."""
        if self._nbits != 0:
            raise BitstreamError("raw bytes must be byte-aligned; call align() first")
        self._bytes.extend(data)

    def write_bitmap(self, bits: np.ndarray) -> None:
        """Append a boolean array, one bit per element in ``ravel()`` order.

        MSB-first and zero-padded to the next byte boundary: the same bytes
        as :meth:`write_bit` for each element followed by :meth:`align`.
        Must start byte-aligned.
        """
        if self._nbits != 0:
            raise BitstreamError("bitmaps must be byte-aligned; call align() first")
        packed = np.packbits(np.asarray(bits, dtype=bool).ravel(), bitorder="big")
        self._bytes.extend(packed.tobytes())

    def align(self) -> None:
        """Zero-pad to the next byte boundary."""
        while self._nbits != 0:
            self.write_bit(0)

    def getvalue(self) -> bytes:
        """Return the written bytes (zero-padding any partial final byte)."""
        self.align()
        return bytes(self._bytes)

    def __len__(self) -> int:
        """Bytes written so far (including any partial byte)."""
        return len(self._bytes) + (1 if self._nbits else 0)


class BitReader:
    """Reads bits MSB-first from a byte buffer written by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._byte_pos = 0
        self._bit_pos = 0

    def read_bit(self) -> int:
        """Read one bit.

        Raises:
            BitstreamError: On reading past the end of the buffer.
        """
        if self._byte_pos >= len(self._data):
            raise BitstreamError("read past end of bitstream")
        byte = self._data[self._byte_pos]
        bit = (byte >> (7 - self._bit_pos)) & 1
        self._bit_pos += 1
        if self._bit_pos == 8:
            self._bit_pos = 0
            self._byte_pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits MSB-first into an unsigned integer."""
        if count < 0 or count > 64:
            raise BitstreamError(f"bit count must be 0-64, got {count}")
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def read_uvarint(self) -> int:
        """Read an unsigned varint (must be byte-aligned)."""
        if self._bit_pos != 0:
            raise BitstreamError("varints must be byte-aligned; call align() first")
        value = 0
        shift = 0
        while True:
            if self._byte_pos >= len(self._data):
                raise BitstreamError("truncated uvarint")
            byte = self._data[self._byte_pos]
            self._byte_pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise BitstreamError("uvarint too long")

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` raw bytes (must be byte-aligned)."""
        if self._bit_pos != 0:
            raise BitstreamError("raw bytes must be byte-aligned; call align() first")
        if self._byte_pos + count > len(self._data):
            raise BitstreamError(
                f"requested {count} bytes with only "
                f"{len(self._data) - self._byte_pos} remaining"
            )
        out = self._data[self._byte_pos : self._byte_pos + count]
        self._byte_pos += count
        return out

    def read_bitmap(self, count: int) -> np.ndarray:
        """Read ``count`` bits written by :meth:`BitWriter.write_bitmap`.

        Returns a boolean array of ``count`` elements and leaves the reader
        on the byte boundary after the bitmap's padding.

        Raises:
            BitstreamError: If not byte-aligned, or fewer than
                ``ceil(count / 8)`` bytes remain.
        """
        if self._bit_pos != 0:
            raise BitstreamError("bitmaps must be byte-aligned; call align() first")
        if count < 0:
            raise BitstreamError(f"bitmap length must be >= 0, got {count}")
        n_bytes = (count + 7) // 8
        if self._byte_pos + n_bytes > len(self._data):
            raise BitstreamError(
                f"truncated bitmap: {count} bits need {n_bytes} bytes, "
                f"{len(self._data) - self._byte_pos} remaining"
            )
        packed = np.frombuffer(
            self._data, dtype=np.uint8, count=n_bytes, offset=self._byte_pos
        )
        self._byte_pos += n_bytes
        return np.unpackbits(packed, count=count, bitorder="big").view(bool)

    def align(self) -> None:
        """Skip to the next byte boundary."""
        if self._bit_pos != 0:
            self._bit_pos = 0
            self._byte_pos += 1

    def remaining_bytes(self) -> int:
        """Whole bytes left to read."""
        return len(self._data) - self._byte_pos - (1 if self._bit_pos else 0)
