"""Figure 16: per-image on-board runtime per policy.

Paper (AMD EPYC 7452): encoding 0.65 s for everyone; Kodan's accurate
cloud detector 0.39 s vs the cheap tree's 0.12 s; Earth+'s low-res change
detection beats SatRoI's full-res pass; Earth+ lowest overall.
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.compute import (
    RuntimeCostModel,
    measure_encode_timings,
    measure_stage_timings,
)
from repro.imagery.noise import fractal_noise
from repro.core.cloud import train_ground_detector, train_onboard_detector
from repro.core.tiles import TileGrid
from repro.imagery.bands import get_band
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass


def test_fig16_runtime_model(benchmark, emit):
    model = RuntimeCostModel()
    stages = run_once(
        benchmark,
        lambda: {
            policy: model.policy_stages(policy)
            for policy in ("earthplus", "kodan", "satroi")
        },
    )
    rows = []
    for policy, timings in stages.items():
        for timing in timings:
            rows.append([policy, timing.stage, f"{timing.seconds:.2f}"])
        rows.append([policy, "TOTAL", f"{model.policy_total(policy):.2f}"])
    emit(
        "fig16_runtime_model",
        format_table(
            ["policy", "stage", "seconds/image (paper scale)"],
            rows,
            title="Figure 16 - runtime breakdown (calibrated model)",
        ),
    )
    assert model.policy_total("earthplus") < model.policy_total("kodan")
    assert model.policy_total("earthplus") < model.policy_total("satroi")


def test_fig16_runtime_measured(benchmark, emit):
    """The same orderings measured on THIS repository's kernels."""
    bands = (get_band("B4"), get_band("B11"))
    cheap = train_onboard_detector(bands, tile_size=64)
    accurate = train_ground_detector(bands)
    spec = LocationSpec(
        name="bench", shape=(256, 256),
        terrain_mix={TerrainClass.FOREST: 0.6, TerrainClass.CITY: 0.4},
        seed=16,
    )
    earth = EarthModel(spec, bands)
    pixels = {b.name: earth.ground_truth(b.name, 3.0) for b in bands}
    reference = earth.ground_truth("B4", 1.0)
    grid = TileGrid((256, 256), 64)
    timings = run_once(
        benchmark,
        lambda: measure_stage_timings(
            pixels, bands, grid, cheap, accurate, reference, repeats=5
        ),
    )
    rows = [[stage, f"{seconds * 1e3:.3f}"] for stage, seconds in timings.items()]
    emit(
        "fig16_runtime_measured",
        format_table(
            ["stage", "ms/image (this repo, 256x256)"],
            rows,
            title="Figure 16 - measured kernel runtimes",
        ),
    )
    assert timings["cloud_cheap"] < timings["cloud_accurate"]
    assert timings["change_lowres"] < timings["change_fullres"]


def test_fig16_encode_backends(benchmark, emit, emit_json):
    """Encode-stage throughput across every registered codec backend.

    All registered backends are bit-exact (tests/codec/test_differential.py
    parameterizes over the registry), so the ratios are pure implementation
    speed of the same computation.  Floors, each well under the numbers a
    healthy build records (see results/fig16_encode_backends.txt) so only
    real regressions trip them: vectorized encode >= 2x, compiled encode
    >= 5x and compiled decode >= 12x over the per-bit reference coder.
    """
    from repro.codec import registry

    image = fractal_noise((256, 256), seed=16, octaves=5, base_cells=4)
    backends = tuple(
        name for name in registry.names() if registry.get(name).available()
    )
    timings = run_once(
        benchmark,
        lambda: measure_encode_timings(image, repeats=3, backends=backends),
    )
    ref_encode = timings["encode_reference"]
    ref_decode = timings["decode_reference"]
    rows = []
    speedups: dict[str, dict[str, float]] = {}
    for stage, ref in (("encode", ref_encode), ("decode", ref_decode)):
        for backend in backends:
            seconds = timings[f"{stage}_{backend}"]
            speedup = ref / seconds
            speedups.setdefault(backend, {})[stage] = speedup
            rows.append(
                [stage, backend, f"{seconds * 1e3:.1f}", f"{speedup:.2f}"]
            )
    emit(
        "fig16_encode_backends",
        format_table(
            ["stage", "backend", "ms/image (256x256)", "speedup"],
            rows,
            title="Figure 16 - codec backends, bit-exact fast path",
        ),
    )
    emit_json(
        "codec",
        {
            "image_shape": [256, 256],
            "backends": list(backends),
            "seconds": {k: v for k, v in timings.items()},
            "speedup_vs_reference": speedups,
        },
    )
    assert speedups["vectorized"]["encode"] >= 2.0, (
        f"vectorized encode speedup {speedups['vectorized']['encode']:.2f}x "
        f"below the 2x floor"
    )
    # Decode cannot precompute its probability schedule, so its headroom is
    # smaller and machine-dependent; parity with the reference is the floor.
    assert speedups["vectorized"]["decode"] >= 1.0, (
        f"vectorized decode slower than reference "
        f"({speedups['vectorized']['decode']:.2f}x)"
    )
    if "compiled" in speedups:
        assert speedups["compiled"]["encode"] >= 5.0, (
            f"compiled encode speedup {speedups['compiled']['encode']:.2f}x "
            f"below the 5x floor"
        )
        # On a 2-vCPU Xeon VM the fused per-plane decoder measures ~30x and
        # the per-pass decoder it replaced (one native call per subband
        # pass) 5-8x, so this floor catches a return to per-pass decode.
        assert speedups["compiled"]["decode"] >= 12.0, (
            f"compiled decode speedup {speedups['compiled']['decode']:.2f}x "
            f"below the 12x floor"
        )
