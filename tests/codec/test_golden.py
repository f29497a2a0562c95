"""Golden bitstream fixtures: the wire format is pinned to checked-in bytes.

Each fixture under ``tests/codec/golden/`` holds a small deterministic input
tile (or image) together with the exact codeword bytes the codec emitted
when the fixture was recorded.  Any change that alters the wire format —
context modelling, range-coder arithmetic, container layout — fails these
tests loudly instead of silently invalidating every stored bitstream.

The oracle coder (``tests/codec_oracle.py``, registered as the
``reference`` engine for this module's scope) and every production engine
are checked against the same golden bytes, so the fixtures double as a
frozen differential baseline.  The fixtures are written by the oracle.

Regenerate (only when a wire-format change is intentional) with::

    PYTHONPATH=src:tests python tests/codec/test_golden.py --regen
"""

import json
from pathlib import Path

import numpy as np
import pytest
from codec_oracle import ORACLE_ENGINE, SubbandPlaneCoder, reference_engine

from repro.codec import registry
from repro.codec.dwt import Wavelet
from repro.codec.jpeg2000 import CodecConfig, EncodedImage, ImageCodec
from repro.codec.metrics import psnr

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The oracle and every production engine encode/decode against the same
#: golden bytes — the fixtures double as a frozen differential baseline.
BACKENDS = (ORACLE_ENGINE, *registry.names())


@pytest.fixture(autouse=True, scope="module")
def _oracle_engine():
    with reference_engine():
        yield


def _tile_cases() -> dict[str, tuple[list, list[np.ndarray], int]]:
    """Deterministic subband tiles: (band_shapes, bands, max_plane)."""
    rng = np.random.default_rng(0xEA57)
    random_bands = [
        rng.integers(-300, 300, (8, 8)),
        rng.integers(-20, 20, (4, 4)),
    ]
    sparse = np.zeros((8, 8), dtype=np.int64)
    sparse[2, 5] = 777
    sparse[6, 1] = -45
    gradient = (
        np.arange(64, dtype=np.int64).reshape(8, 8) * 3 - 96
    )
    cases = {
        "random_two_band": random_bands,
        "all_zero": [np.zeros((8, 8), dtype=np.int64)],
        "single_coefficient": [sparse],
        "gradient": [gradient],
    }
    out = {}
    for name, bands in cases.items():
        shapes = [(f"b{i}", 1, b.shape) for i, b in enumerate(bands)]
        peak = max((int(np.abs(b).max()) for b in bands), default=0)
        out[name] = (shapes, bands, max(peak.bit_length() - 1, 0))
    return out


def _image_case() -> tuple[CodecConfig, np.ndarray]:
    """A deterministic 16x16 image for the full-container fixture."""
    rng = np.random.default_rng(0x90FD)
    image = rng.random((16, 16))
    config = CodecConfig(
        tile_size=16, levels=2, wavelet=Wavelet.CDF97, base_step=1.0 / 128.0
    )
    return config, image


def _budgeted_case() -> tuple[CodecConfig, np.ndarray, int, int]:
    """A multi-tile image encoded under a binding byte budget.

    ``(config, image, target_bytes, n_layers)``: 3x4 tiles of 16 px with
    8-px edge tiles, three quality layers, and a budget of about 40 % of
    the unbudgeted payload, so ``ImageCodec._allocate`` reads every
    tile's rate-distortion curve and keeps a different plane count per
    tile.
    """
    rng = np.random.default_rng(0xB0D6)
    rows, cols = np.mgrid[0:40, 0:56]
    image = np.clip(
        0.5
        + 0.3 * np.sin(cols / 7.0) * np.cos(rows / 5.0)
        + 0.1 * rng.standard_normal((40, 56)),
        0.0,
        1.0,
    )
    config = CodecConfig(
        tile_size=16, levels=2, wavelet=Wavelet.CDF97, base_step=1.0 / 256.0
    )
    return config, image, 1000, 3


def _tile_fixture_payload(name, shapes, bands, max_plane) -> dict:
    coder = SubbandPlaneCoder(shapes)
    segments = coder.encode(bands, max_plane)
    return {
        "name": name,
        "band_shapes": [[key, level, list(shape)] for key, level, shape in shapes],
        "bands": [band.tolist() for band in bands],
        "max_plane": max_plane,
        "segments": [
            {"plane": seg.plane, "hex": seg.data.hex()} for seg in segments
        ],
    }


def _image_fixture_payload() -> dict:
    config, image = _image_case()
    codec = ImageCodec(config, backend=ORACLE_ENGINE)
    encoded = codec.encode(image, n_layers=2)
    return {
        "name": "image_container",
        "container_hex": encoded.to_bytes().hex(),
    }


def _budgeted_fixture_payload() -> dict:
    config, image, target_bytes, n_layers = _budgeted_case()
    codec = ImageCodec(config, backend=ORACLE_ENGINE)
    encoded = codec.encode(image, target_bytes=target_bytes, n_layers=n_layers)
    return {
        "name": "budgeted_container",
        "target_bytes": target_bytes,
        "n_layers": n_layers,
        "container_hex": encoded.to_bytes().hex(),
    }


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (shapes, bands, max_plane) in _tile_cases().items():
        payload = _tile_fixture_payload(name, shapes, bands, max_plane)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")
    with reference_engine():
        payloads = (_image_fixture_payload(), _budgeted_fixture_payload())
    for payload in payloads:
        path = GOLDEN_DIR / f"{payload['name']}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")


def _load(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"golden fixture {path} missing; regenerate with "
        "PYTHONPATH=src:tests python tests/codec/test_golden.py --regen"
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize("case_name", sorted(_tile_cases()))
@pytest.mark.parametrize("backend", BACKENDS)
def test_tile_bitstreams_match_golden(case_name, backend):
    shapes, bands, max_plane = _tile_cases()[case_name]
    fixture = _load(case_name)
    # The fixture's stored inputs must match the generator (guards against
    # editing one side only).
    assert fixture["max_plane"] == max_plane
    for stored, band in zip(fixture["bands"], bands):
        assert np.array_equal(np.asarray(stored), band)
    coder = registry.get(backend).coder_factory(shapes)
    segments = coder.encode(bands, max_plane)
    assert len(segments) == len(fixture["segments"])
    for seg, want in zip(segments, fixture["segments"]):
        assert seg.plane == want["plane"]
        assert seg.data.hex() == want["hex"], (
            f"{case_name} plane {seg.plane}: wire format changed; if "
            "intentional, regenerate the golden fixtures"
        )
    # The stored codewords must also decode back to the original bands.
    decoded = coder.decode(segments, max_plane)
    for got, band in zip(decoded, bands):
        assert np.array_equal(got, band)


@pytest.mark.parametrize("backend", BACKENDS)
def test_image_container_matches_golden(backend):
    config, image = _image_case()
    fixture = _load("image_container")
    codec = ImageCodec(config, backend=backend)
    encoded = codec.encode(image, n_layers=2)
    assert encoded.to_bytes().hex() == fixture["container_hex"], (
        "EncodedImage wire format changed; if intentional, regenerate the "
        "golden fixtures"
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_budgeted_container_matches_golden(backend):
    """A budgeted encode pins the rate-distortion allocation: a drifted
    distortion-curve float can change which planes a tile keeps."""
    config, image, target_bytes, n_layers = _budgeted_case()
    fixture = _load("budgeted_container")
    assert fixture["target_bytes"] == target_bytes
    assert fixture["n_layers"] == n_layers
    codec = ImageCodec(config, backend=backend)
    encoded = codec.encode(image, target_bytes=target_bytes, n_layers=n_layers)
    # The budget must bind, or the allocation never reads the curve.
    kept = [tile.planes_available for tile in encoded.tiles]
    available = [tile.max_plane + 1 for tile in encoded.tiles]
    assert encoded.payload_bytes() <= target_bytes
    assert any(k < a for k, a in zip(kept, available))
    assert len(set(kept)) > 1
    assert encoded.to_bytes().hex() == fixture["container_hex"], (
        "budgeted EncodedImage changed: the wire format or the "
        "rate-distortion allocation drifted"
    )


#: Every quality-layer prefix of the two stored containers.
_CONTAINER_CASES = {
    "image_container": _image_case,
    "budgeted_container": _budgeted_case,
}
_LAYER_PREFIXES = [
    ("image_container", 1),
    ("image_container", 2),
    ("budgeted_container", 1),
    ("budgeted_container", 2),
    ("budgeted_container", 3),
]


@pytest.mark.parametrize("name,layers", _LAYER_PREFIXES)
def test_golden_containers_decode(name, layers):
    """The stored bytes, not a fresh encode, decode to one reconstruction
    under every engine at every layer prefix, and each added layer
    brings it closer to the source image."""
    config, image = _CONTAINER_CASES[name]()[:2]
    blob = bytes.fromhex(_load(name)["container_hex"])
    encoded = EncodedImage.from_bytes(blob)
    assert 1 <= layers <= encoded.n_layers
    decoded = {
        backend: ImageCodec(config, backend=backend).decode(encoded, layers)
        for backend in BACKENDS
    }
    expected = decoded[ORACLE_ENGINE]
    for backend, pixels in decoded.items():
        assert pixels.tobytes() == expected.tobytes(), backend
    if layers > 1:
        oracle = ImageCodec(config, backend=ORACLE_ENGINE)
        coarser = oracle.decode(encoded, layers - 1)
        assert psnr(image, expected) > psnr(image, coarser)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
