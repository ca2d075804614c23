"""Tests of the benchmark itself: SVD hand counts, the tracer, the output checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import teleportlab  # noqa: E402
from teleportlab import choi, cli  # noqa: E402

from bench import calibrate, checks, metrics, tracer as tracing, workloads  # noqa: E402
from bench.run import invoke  # noqa: E402


def traced(argv):
    tracer = tracing.Tracer()
    with tracer:
        code, text, _ = invoke(cli, argv + ["--no-timestamp"])
    assert code == 0
    return tracer.spans, tracing.summarize(tracer.spans)


def test_fidelity_d2_svd_count_is_15():
    # 4 transfer SVDs in build_setup, 2 x (1 resource + 4 basis) in the two
    # special-case detections, 1 for the max-entangled-basis closed form.
    _, table = traced(["fidelity", "--d", "2", "--shared", "haar-random"])
    assert table["linalg.svd"]["calls"] == 15
    assert table["linalg.svd"]["amount"] == 15


@pytest.mark.parametrize("shots", [0, 7])
def test_teleport_d2_svd_count_is_4_plus_shots(shots):
    _, table = traced(["teleport", "--d", "2", "--samples", str(shots)])
    assert table["linalg.svd"]["calls"] == 4 + shots
    assert table.get("teleport.optimal_correction", {"calls": 0})["calls"] == shots


def _namespaces():
    spaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "teleportlab"]
    spaces += [np.linalg, choi.BipartiteState]
    return {id(space): dict(vars(space)) for space in spaces}


def test_tracer_wraps_every_importing_namespace_and_restores_it():
    before = _namespaces()
    originals = {name: getattr(module, attr) for name, module, attr in (
        ("cli.build_setup", teleportlab.cli, "build_setup"),
        ("teleport.validate_basis", teleportlab.teleport, "validate_basis"),
        ("haar.state_fidelity_batch", teleportlab.haar, "state_fidelity_batch"),
        ("package.bell_basis", teleportlab, "bell_basis"),
        ("numpy.linalg.svd", np.linalg, "svd"),
    )}
    tracer = tracing.Tracer()
    with tracer:
        assert teleportlab.cli.build_setup is not originals["cli.build_setup"]
        assert teleportlab.teleport.validate_basis is not originals["teleport.validate_basis"]
        assert teleportlab.haar.state_fidelity_batch is not originals["haar.state_fidelity_batch"]
        assert teleportlab.bell_basis is not originals["package.bell_basis"]
        assert np.linalg.svd is not originals["numpy.linalg.svd"]
        assert vars(choi.BipartiteState)["from_vector"] is not before[id(choi.BipartiteState)]["from_vector"]
    after = _namespaces()
    assert after.keys() == before.keys()
    for key, space in before.items():
        assert after[key].keys() == space.keys()
        for attr, value in space.items():
            assert after[key][attr] is value, attr


def test_spans_nest_and_self_time_is_never_negative():
    spans, table = traced(["verify", "--d", "3", "--shared", "haar-random", "--samples", "20"])
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    for name, start, end, parent, _, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert min(tracing.self_times(spans)) >= 0.0
    assert table["teleport.verify_identity"]["calls"] == 20
    assert table["bases.validate_basis"]["calls"] == 1


def test_layer_values_cover_every_per_layer_metric():
    _, table = traced(["teleport", "--d", "2", "--shared", "haar-random", "--samples", "5"])
    values = metrics.layer_values(table, "teleport.sample_outcome")
    names = {m.name for m in metrics.PER_LAYER}
    assert set(values) == names - {"trace.overhead_frac"}
    assert values["cli.render.bytes"] == table["cli.render"]["amount"] > 0
    assert 0 < values["trace.dominant_frac"] < 1


def _report(argv):
    code, text, _ = invoke(cli, argv + ["--no-timestamp"])
    assert code == 0
    return text


def test_check_rejects_a_transcript_with_one_byte_mutated():
    text = _report(["teleport", "--d", "2", "--shared", "haar-random", "--samples", "50"])
    reference = checks.make_reference("teleport", text)
    assert checks.structure_problems("teleport", text) == []
    assert checks.reference_problems("teleport", text, reference) == []
    at = text.rindex("0.") + 3
    digit = "1" if text[at] != "1" else "2"
    mutated = text[:at] + digit + text[at + 1:]
    assert checks.structure_problems("teleport", mutated) == []
    assert checks.reference_problems("teleport", mutated, reference) != []


def _move_analytic(text: str, delta: float) -> str:
    lines = text.split("\n")
    header = next(line for line in lines if line.startswith("experiment,")).split(",")
    column = header.index("analytic")
    fields = lines[-2].split(",")
    fields[column] = format(float(fields[column]) + delta, ".17g")
    lines[-2] = ",".join(fields)
    return "\n".join(lines)


def test_check_rejects_a_fidelity_moved_by_1e13_and_accepts_1e15():
    text = _report(["fidelity", "--d", "3", "--shared", "haar-random"])
    reference = checks.make_reference("fidelity", text)
    assert checks.reference_problems("fidelity", text, reference) == []
    assert checks.reference_problems("fidelity", _move_analytic(text, 1e-13), reference) != []
    assert checks.reference_problems("fidelity", _move_analytic(text, 1e-15), reference) == []


def test_verify_check_allows_residual_drift_below_tolerance_only():
    text = _report(["verify", "--d", "2", "--samples", "10"])
    reference = checks.make_reference("verify", text)
    residual = text.rstrip("\n").rsplit(",", 1)[1]
    assert checks.reference_problems("verify", text.replace(residual, "3e-15"), reference) == []
    assert checks.reference_problems("verify", text.replace(residual, "1e-9"), reference) != []


def test_structure_check_rejects_a_missing_row():
    text = _report(["teleport", "--d", "2", "--samples", "5"])
    truncated = text[: text.rstrip("\n").rindex("\n") + 1]
    assert checks.structure_problems("teleport", truncated) != []


def test_generated_inputs_follow_the_seed(tmp_path):
    workload = workloads.WORKLOADS["verify-custom"]
    texts = []
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        directory = tmp_path / name
        directory.mkdir()
        args = workloads.write_inputs(workload, seed, str(directory))
        texts.append([Path(p).read_bytes() for p in args[1::2]])
        basis = cli.load_basis_file(args[1])
        assert teleportlab.validate_basis(basis).passed
    assert texts[0] == texts[1]
    assert texts[0][0] != texts[2][0] and texts[0][1] != texts[2][1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_recorded_reference_reproduces(name, tmp_path):
    recorded = checks.load_references()
    workload = workloads.WORKLOADS[name]
    seed = recorded["seed"]
    argv = workloads.invocation_argv(workload, seed, workloads.write_inputs(workload, seed, str(tmp_path)))
    code, text, _ = invoke(cli, argv)
    assert code == 0
    assert checks.reference_problems(workload.argv[0], text, recorded["outputs"][name]) == []


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    assert spec["paths"] == ["bench"]


def test_every_workload_names_a_calibration_kernel_with_a_reference_time():
    assert calibrate.KERNELS.keys() == calibrate.REFERENCE_S.keys()
    for workload in workloads.WORKLOADS.values():
        assert {workload.kernel, workload.setup_kernel} <= calibrate.KERNELS.keys()
