"""`verify all` on the benchmark's instances keeps the benchmark's pins.

perfbench/expected.py pins the exit code and every (name, status) of
`verify all --json` on the instances perfbench/instances.py writes, and the
benchmark counts a run that differs as a failed operation.  This test reads
both files as they are and asserts the same pins, so a status change fails
here before the benchmark sees it.  Scopes are not compared: the benchmark
only counts the ones that change.
"""

import importlib.util
import json
import pathlib

import pytest

from toeplitzlab.cli import main

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1  # the seed of the benchmark's documented runs


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPECTED = _load("expected")
INSTANCES = _load("instances")
CASES = [inst for workload in INSTANCES.WORKLOADS
         for inst in INSTANCES.workload_instances(workload, SEED)]


@pytest.mark.parametrize("inst", CASES, ids=[i.name for i in CASES])
def test_verify_all_keeps_the_benchmark_pins(inst, tmp_path, capsys):
    inst.write(str(tmp_path))
    code = main(["verify", "all", "--json", *inst.args])
    results = json.loads(capsys.readouterr().out)["results"]
    pinned = EXPECTED.VERDICTS[inst.pinned]
    assert code == pinned["exit"]
    assert [(r["name"], r["status"]) for r in results] == \
        [check[:2] for check in pinned["checks"]]
