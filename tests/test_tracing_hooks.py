"""The traced benchmark run (perfbench/tracing.py) patches functions by
name and reads some of their arguments by position; a rename or a moved
parameter here would silently stop it counting."""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from cssident import odesens

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_patch_target_resolves(tracing):
    for module_name, attr, *_ in tracing.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_hooked_parameters_are_where_the_hooks_read_them():
    # _integrate_before reads grid and substeps at positions 2 and 3 and
    # wraps rhs(t, x); _svir_after reads method at position 3
    assert list(inspect.signature(odesens.integrate).parameters) == [
        "rhs", "x0", "grid", "substeps"]
    assert list(inspect.signature(odesens.svir_sensitivity).parameters)[3] == "method"
