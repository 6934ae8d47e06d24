"""The names perfbench reaches into k3cm by still resolve and run.

`perfbench/spans.py` rebinds the functions listed in `LAYERS` by module and
attribute name, and `perfbench/workloads.py` calls k3cm functions with fixed
signatures.  A rename there breaks only the benchmark, so this runs the
recorder's install and uninstall, and one item of two workloads under it.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

from k3cm.fixtures import registry  # noqa: E402


def _current(module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    return owner


def test_layers_resolve_and_items_run_under_the_recorder(tmp_path):
    before = {(m, a): _current(m, a) for _, m, a, _ in spans.LAYERS}
    lift = next(i for i in workloads.rediscover(1, str(tmp_path)).items if i.id == "lift-88")
    verify = workloads.certify(1, str(tmp_path)).items[0]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert len(recorder._bindings) == len(spans.LAYERS)
        assert lift.run() is None
        assert verify.run() is None, verify.id
    finally:
        recorder.uninstall()
    assert {(m, a): _current(m, a) for _, m, a, _ in spans.LAYERS} == before
    names = {row[0] for row in recorder.spans}
    assert {"lift.recover_section", "lift.newton_double", "sections.verify_section",
            "lattices.match_transcendental"} <= names


def test_deep_scan_fields_resolve():
    # the deep-scan workload picks its field through `search._degenerate_lambdas`
    assert workloads.deep_scan_fields(registry())
