"""Tests of the host-time benchmark itself.

Run from the repository root::

    python -m pytest hostbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cgyro.presets import small_test  # noqa: E402
from repro.machine import generic_cluster  # noqa: E402
from repro.vmpi.world import VirtualWorld  # noqa: E402
from repro.xgyro import XgyroEnsemble  # noqa: E402

from hostbench import run, tracer, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_ensemble():
    world = VirtualWorld(generic_cluster(n_nodes=2))
    inputs = [small_test(), small_test(dlntdr=(2.5, 2.5), name="small.b")]
    return XgyroEnsemble(world, inputs)


def _state_fingerprint(ens) -> str:
    return workloads.fingerprint({"clocks": ens.world.clock, "h": ens.member_states()})


def test_metric_names_are_well_formed():
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]] + list(tracer.LAYER_METRICS))
    assert len(names) > len(tracer.LAYER_METRICS)
    for name in names:
        assert NAME.fullmatch(name), name


def test_spec_matches_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in tracer.LAYER_METRICS.items()
    ]


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    gated = {w["name"] for w in SPEC["workloads"]}
    for metric in SPEC["per_layer"]:
        moves = tracer.LAYER_METRICS[metric["name"]][2]
        if metric["name"].startswith("sim."):
            # model outputs: pinned bit-for-bit by the fingerprint
            assert moves == (), metric["name"]
            continue
        for e2e, workload in moves:
            assert e2e in end_to_end and workload in run.WORKLOAD_NAMES, (
                metric["name"], e2e, workload)
        # at least one prediction can be checked on a BENCHMARK.json workload
        assert any(workload in gated for _, workload in moves), metric["name"]


def test_self_times_sum_to_the_traced_wall():
    t0 = time.perf_counter()
    with tracer.traced() as rec:
        with rec.span("bench.setup"):
            ens = _small_ensemble()
        with rec.span("bench.run"):
            ens.step()
            ens.step()
    wall = time.perf_counter() - t0
    per_layer = tracer.layer_self_times(rec)
    assert set(per_layer) == set(tracer.LAYERS)
    total = sum(per_layer.values())
    assert total == pytest.approx(tracer.root_seconds(rec), rel=1e-9)
    # the wall outside the two roots is the wrapper install/remove only
    assert total == pytest.approx(wall, rel=0.02)
    values = tracer.layer_metrics(rec, {})
    assert values["xgyro.coll.calls"] == 2
    assert values["cgyro.str.calls"] == 4
    assert values["collision.build.inverses"] >= values["collision.build.distinct_inverses"] > 0
    assert sum(values[f"{layer}.share"] for layer in tracer.LAYERS) == pytest.approx(1.0)


def test_no_wrapper_is_left_in_place():
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _, _ in tracer.entry_points()]
    with tracer.traced():
        wrapped = [cls.__dict__[attr] is not orig for cls, attr, orig in originals]
    assert all(wrapped)
    for cls, attr, orig in originals:
        assert cls.__dict__[attr] is orig, f"{cls.__name__}.{attr}"
    with pytest.raises(RuntimeError):
        with tracer.traced():
            raise RuntimeError("unit failed")
    for cls, attr, orig in originals:
        assert cls.__dict__[attr] is orig, f"{cls.__name__}.{attr}"


def test_tracing_leaves_the_model_bit_identical():
    plain = _small_ensemble()
    plain.step()
    with tracer.traced():
        traced_ens = _small_ensemble()
        traced_ens.step()
    assert _state_fingerprint(traced_ens) == _state_fingerprint(plain)


def test_spans_file_sums_per_layer(tmp_path):
    with tracer.traced() as rec:
        with rec.span("bench.run"):
            _small_ensemble().step()
    path = tracer.write_spans(rec, tmp_path / "spans.csv")
    sums = {}
    for row in path.read_text().splitlines()[1:]:
        _, _, _, layer, _, _, own = row.split(",")
        sums[layer] = sums.get(layer, 0.0) + float(own)
    expected = tracer.layer_self_times(rec)
    for layer, own in sums.items():
        assert own == pytest.approx(expected[layer], abs=1e-6)


def test_seed_picks_the_gradients():
    default = [i.dlntdr for i in workloads.gradient_sweep(workloads.DEFAULT_SEED, 8)]
    assert default == [(3.0 + 0.1 * m, 3.0 + 0.1 * m) for m in range(8)]
    assert workloads.gradient_sweep(5, 8) == workloads.gradient_sweep(5, 8)
    assert workloads.gradient_sweep(5, 8) != workloads.gradient_sweep(6, 8)


def test_references_name_known_workloads():
    refs = json.loads(run.REFERENCES.read_text())
    assert set(refs) == set(run.WORKLOAD_NAMES)
    for by_env in refs.values():
        for by_seed in by_env.values():
            assert str(workloads.DEFAULT_SEED) in by_seed and len(by_seed) >= 2
            assert all(re.fullmatch(r"[0-9a-f]{64}", fp) for fp in by_seed.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", run.WORKLOAD_NAMES[0], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
