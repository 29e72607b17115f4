"""Every attribute the benchmark's tracer patches is defined where it looks for
it, so a rename in ringzeta cannot break `bench/run.py --trace 1`."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_every_trace_target_is_in_its_owners_dict():
    missing = [
        (getattr(owner, "__name__", repr(owner)), attr)
        for owner, attr, _kind, _name in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing
