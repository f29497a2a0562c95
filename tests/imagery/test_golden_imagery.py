"""Golden digests of synthesized imagery and the detectors trained on it.

Every capture, cloud mask and cloud-detector training image in the
simulation is synthesized by :mod:`repro.imagery`, so these digests pin
its output byte for byte: a few captures per location (every band's
pixels, the cloud mask and the thickness field) of datasets built like
the benchmark's three workloads (``perfbench/workloads.py``), and the
pickled decision trees of the on-board and ground cloud detectors for
each of their band sets.

The digests were recorded once and are never regenerated: a change to
the imagery code, its native kernels or its numpy fallback must
reproduce them.  The suite runs with and without a C toolchain
(``REPRO_CODEC_CC=``), so both paths are held to the same bytes.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.analysis.scenarios import DatasetSpec
from repro.core.cloud import train_ground_detector, train_onboard_detector
from repro.core.config import EarthPlusConfig

#: The datasets of the benchmark's workloads, as it builds them.
DATASETS = {
    "timeseries": DatasetSpec.of(
        "sentinel2",
        locations=["B"],
        bands=["B2", "B3", "B4", "B8"],
        horizon_days=180.0,
        image_shape=(256, 256),
    ),
    "constellation": DatasetSpec.of(
        "planet",
        n_satellites=4,
        image_shape=(96, 96),
        horizon_days=45.0,
        seed=19,
    ),
    "ladder": DatasetSpec.of(
        "sentinel2",
        locations=["A"],
        bands=["B4", "B11"],
        horizon_days=45.0,
        image_shape=(192, 192),
    ),
}

#: sha256 over the sampled captures of each dataset.
CAPTURE_DIGESTS = {
    "timeseries": "e643c65dbdc09ac3e3ba008dbe793213e738d1f72cfe9750722434214c063d08",
    "constellation": "41bdf8cf5f8e0a1c3316634e91038cb52c1bccd813ab2d0fbe3076b05a86a0de",
    "ladder": "7da4a5bcfe433175c721a863921de4fc24b7fc7ab93207360391a471ce298857",
}

#: sha256 over the pickled (on-board, ground) detector trees trained for
#: each dataset's band set.
DETECTOR_DIGESTS = {
    "timeseries": "0ddb6c2d7b85e29cee8239f2d58a589f2063a7deadbd9a96864989bea2622b88",
    "constellation": "f82a29466165c686d24836f7df11ce6e3a8c4f31777972eda08904e6bdec64ba",
    "ladder": "64cee8806760539463e4b878c84971a61ba546945870476a794f654090c196ac",
}


def _sampled_visits(schedule, location: str) -> list:
    """Five visits of ``location`` spread over the horizon, time ordered."""
    visits = [v for v in schedule.all_visits_sorted() if v.location == location]
    picks = sorted({(len(visits) - 1) * k // 4 for k in range(5)})
    return [visits[index] for index in picks]


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_capture_digest(name):
    dataset = DATASETS[name].build()
    digest = hashlib.sha256()
    for location in dataset.locations:
        sensor = dataset.sensors[location]
        for visit in _sampled_visits(dataset.schedule, location):
            capture = sensor.capture(visit.satellite_id, visit.t_days)
            for band in dataset.bands:
                digest.update(capture.pixels[band.name].tobytes())
            digest.update(capture.cloud.mask.tobytes())
            digest.update(capture.cloud.thickness.tobytes())
    assert digest.hexdigest() == CAPTURE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_detector_digest(name):
    bands = DATASETS[name].build().bands
    onboard = train_onboard_detector(
        bands, tile_size=EarthPlusConfig().tile_size
    )
    ground = train_ground_detector(bands)
    digest = hashlib.sha256()
    for detector in (onboard, ground):
        digest.update(pickle.dumps(detector.tree, protocol=4))
    assert digest.hexdigest() == DETECTOR_DIGESTS[name]
