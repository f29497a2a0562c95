"""Self-test: a slowdown injected into one kernel shows where it should.

A ``sitecustomize`` on the benchmark processes' path wraps
``repro.codec.jpeg2000.ImageCodec.decode`` from outside with a busy-wait.
The benchmark then runs every workload with and without it, alternating
the two sides, and the compare must mark ``wall_s`` worse on ``ladder``
(decode is most of its worker time) and on neither other workload (they
never decode), and the traced tables' largest self-time increase must be
``engine.decode``.

The busy-wait adds 75 % of each decode's own duration, about +40 % of
``ladder``'s wall time: ``wall_s`` is bounded at 25 % because on a shared
2-core VM runs of unchanged code still spread by up to ~11 % (quartile
distance over median) after host-speed scaling, and the bound must hold
in the host's bad spells too; a smaller slowdown would rightly read as
unchanged.

Each run lasts 12 s, so most runs get two repetitions: a single
repetition's host-speed scaling rests on one pair of probes.
Run with ``python3 -m pytest perfbench/tests`` (about four minutes).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Busy-wait added to every decode, as a share of that decode's duration.
SLOWDOWN = 0.75

SITECUSTOMIZE = f"""
import time

from repro.codec.jpeg2000 import ImageCodec

_decode = ImageCodec.decode


def decode(self, *args, **kwargs):
    started = time.perf_counter()
    image = _decode(self, *args, **kwargs)
    until = started + {1.0 + SLOWDOWN} * (time.perf_counter() - started)
    while time.perf_counter() < until:
        pass
    return image


ImageCodec.decode = decode
"""


def test_decode_slowdown_is_worse_on_ladder_only(tmp_path):
    inject = tmp_path / "inject"
    inject.mkdir()
    (inject / "sitecustomize.py").write_text(SITECUSTOMIZE)
    base, slow = tmp_path / "base.jsonl", tmp_path / "slow.jsonl"
    for name, workload in workloads.WORKLOADS.items():
        for index in range(4):
            sides = [(base, None), (slow, inject)]
            for record, extra in sides if index % 2 == 0 else sides[::-1]:
                argv = [
                    "--workload", name,
                    "--seed", str(workload.default_seed),
                    "--seconds", "12",
                    "--trace", "1" if index == 0 else "0",
                    "--record", str(record),
                ]
                assert run.main(argv, extra_path=extra) == 0

    metrics, layers = compare.compare(compare.load(base), compare.load(slow))
    verdicts = {
        row["workload"]: row["verdict"] for row in metrics if row["metric"] == "wall_s"
    }
    assert verdicts["ladder"] == "worse", metrics
    assert verdicts["timeseries"] != "worse", metrics
    assert verdicts["constellation"] != "worse", metrics
    ladder = [
        row for row in layers
        if row["workload"] == "ladder" and row["row"] != "unattributed"
    ]
    assert max(ladder, key=lambda row: row["delta_s"])["row"] == "engine.decode"
