"""Golden uplink messages: the reference-update wire format, pinned to bytes.

``ReferenceUpdate.n_bytes`` is the length of the real serialization and
every uplink digest only sees lengths, so a change of bit order or padding
in the validity bitmap would pass every other test.  The fixture
``golden/uplink_updates.json`` holds the exact bytes of one full and one
delta update, each with a validity bitmap whose length is not a multiple
of 8 (so the zero padding of the last bitmap byte is pinned too).

The fixture was recorded once, by the per-bit serializer, and is never
regenerated: a wire-format change that fails here is a bug.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.reference import ReferenceUpdate
from repro.errors import BitstreamError

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "uplink_updates.json").read_text()
)

#: Message fields per case; payload and validity are arithmetic patterns,
#: so the fixture depends on no random number generator.
CASES = {
    # 35 validity bits: the bitmap's last byte carries 3 bits and 5 pad.
    "full_5x7": dict(
        location="A",
        band="B4",
        t_days=12.5,
        full=True,
        lr_shape=(5, 7),
        lr_tile=4,
        tile_indices=[],
        n_payload=35,
    ),
    # 99 validity bits; tile (2, 2) is the ragged 1x3 corner tile.
    "delta_9x11": dict(
        location="loc-east",
        band="B11",
        t_days=40.25,
        full=False,
        lr_shape=(9, 11),
        lr_tile=4,
        tile_indices=[(0, 2), (1, 0), (2, 2)],
        n_payload=12 + 16 + 3,
    ),
}


def build_update(name: str) -> ReferenceUpdate:
    """The golden case ``name`` as a message object."""
    case = dict(CASES[name])
    n_payload = case.pop("n_payload")
    height, width = case["lr_shape"]
    ys, xs = np.mgrid[0:height, 0:width]
    return ReferenceUpdate(
        payload=((np.arange(n_payload) * 37 + 11) % 256).astype(np.uint8),
        validity=(ys * 7 + xs * 3) % 5 != 0,
        **case,
    )


@pytest.mark.parametrize("name", sorted(CASES))
class TestUplinkGolden:
    def test_bytes_match_golden(self, name):
        update = build_update(name)
        assert update.to_bytes().hex() == GOLDEN[name]["wire_hex"]
        assert update.n_bytes == len(bytes.fromhex(GOLDEN[name]["wire_hex"]))

    def test_golden_parses_to_fields(self, name):
        expected = build_update(name)
        parsed = ReferenceUpdate.from_bytes(
            bytes.fromhex(GOLDEN[name]["wire_hex"])
        )
        assert parsed.location == expected.location
        assert parsed.band == expected.band
        assert parsed.t_days == expected.t_days
        assert parsed.full == expected.full
        assert parsed.lr_shape == expected.lr_shape
        assert parsed.lr_tile == expected.lr_tile
        assert parsed.tile_indices == expected.tile_indices
        assert np.array_equal(parsed.payload, expected.payload)
        assert parsed.validity.dtype == bool
        assert np.array_equal(parsed.validity, expected.validity)

    def test_cut_inside_bitmap_raises(self, name):
        update = build_update(name)
        wire = update.to_bytes()
        n_bitmap = (update.validity.size + 7) // 8
        # Everything before the bitmap, then all but its last byte: the
        # payload that would follow is cut away too.
        bitmap_end = len(wire) - update.payload.size
        for cut in range(bitmap_end - n_bitmap, bitmap_end):
            with pytest.raises(BitstreamError):
                ReferenceUpdate.from_bytes(wire[:cut])
