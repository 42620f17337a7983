"""The traced benchmark wraps functions by the names its callers look
up.  Every wrapped name must still resolve, or `--trace 1` breaks."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.CHILD_WRAPS + tracing.PARENT_WRAPS],
)
def test_wrapped_name_resolves(owner, attr):
    assert callable(getattr(tracing._resolve(owner), attr))
