"""Synthetic Earth-observation imagery substrate.

The paper evaluates Earth+ on Sentinel-2 and Planet (Doves) archives.  Those
archives are terabyte-scale and network-gated, so this package implements the
closest synthetic equivalent: a procedural, deterministic Earth-surface model
with the temporal statistics the paper's results depend on —

* slow, spatially sparse terrestrial change (a per-tile Poisson change process
  whose age→changed-fraction curve is calibrated to the paper's Figure 4),
* cloud climatology covering roughly two thirds of captures
  (:mod:`repro.imagery.clouds`),
* capture-to-capture illumination drift that is linear in pixel value
  (:mod:`repro.imagery.illumination`, citing the paper's use of [72]),
* heterogeneous multi-band behaviour (ground vs. air vs. vegetation bands,
  :mod:`repro.imagery.bands`), and
* snow-albedo volatility at snowy locations (the paper's locations D and H).

Everything is seeded and reproducible: the surface observed at ``(location,
band, time)`` is a pure function of the model configuration.
"""

from repro.imagery.bands import (
    Band,
    BandCategory,
    SENTINEL2_BANDS,
    PLANET_BANDS,
    get_band,
)
from repro.imagery.noise import fractal_noise, smoothstep
from repro.imagery.events import ChangeEventProcess, TileChangeModel
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.illumination import IlluminationModel, IlluminationSample
from repro.imagery.clouds import CloudModel, CloudSample
from repro.imagery.sensor import Capture, SatelliteSensor

__all__ = [
    "Band",
    "BandCategory",
    "SENTINEL2_BANDS",
    "PLANET_BANDS",
    "get_band",
    "fractal_noise",
    "smoothstep",
    "ChangeEventProcess",
    "TileChangeModel",
    "EarthModel",
    "LocationSpec",
    "TerrainClass",
    "IlluminationModel",
    "IlluminationSample",
    "CloudModel",
    "CloudSample",
    "Capture",
    "SatelliteSensor",
]
