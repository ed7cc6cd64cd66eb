"""What the benchmark harness under perfbench/ takes from srgforge.

The harness imports srgforge names and wraps functions by name, so a
renamed or removed one breaks the benchmark without failing any other
test.  These load the harness modules as the benchmark runner does and
touch every name they use.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return {name: _load(name) for name in ("layertrace", "workloads", "check")}


def test_every_traced_name_resolves(harness):
    traced = harness["layertrace"].TRACED
    assert any(attr == "cmd_gen_ddg" for _, attr in traced)
    for module, attr in traced:
        target = functools.reduce(getattr, attr.split("."), module)
        assert callable(target), (module.__name__, attr)


def test_workloads_build(harness, tmp_path):
    workloads = harness["workloads"]
    assert len(workloads.build("gen-mid", 1, tmp_path, 2)) == 2
    assert len(workloads.build("canon-small", 1, tmp_path, 1)) == 1
    g, partition, srg = workloads.glued_graphs(2, 3, 0, "random")
    assert (g.n, len(partition.classes), srg.n) == (56, 7, 63)
