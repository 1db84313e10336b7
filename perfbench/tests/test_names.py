import json
from dataclasses import replace

import pytest

from perfbench import bench
from perfbench.bench import END_TO_END, WORKLOADS, per_layer_units

SPEC = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_every_metric_and_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_prints_exactly_the_declared_metrics(tmp_path, trace):
    tiny = replace(WORKLOADS["desk-dense"], pool=2, setups=1, mem_k=4)
    detail = bench.run_workload(tiny, 0, 0.0, trace, 1, data_dir=tmp_path,
                                out_dir=None)
    result = detail["result"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert result["correct"] is True
    assert result["attempted"] == 2 * 4 * (2 if trace else 1)
    assert result["failed"] == sum(sum(k.values()) for k in detail["failures"].values())
    if trace:
        for m in ("gpbilq", "gpbicg", "gpqmr"):
            assert result["metrics"][f"{m}.linop.calls_per_iter"]["value"] == 4.0
