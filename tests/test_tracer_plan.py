"""The benchmark's tracer (`perfbench/tracing.py`) wraps relucert's layer
entry points by attribute name, so renaming or deleting one breaks every
traced benchmark run. This checks its patch plan against the library."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_every_name_the_tracer_patches_exists():
    try:
        plan = tracing.layer_wrappers(tracing.Tracer())
    except AttributeError as e:  # its message names the missing attribute
        pytest.fail(f"the tracer patches a name relucert no longer has: {e}")
    assert plan
    for owner, attr, traced in plan:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} is not callable"
        assert callable(traced)
