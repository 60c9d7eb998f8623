"""The traced benchmark run (perfbench/tracing.py) patches functions by
name and reads some of their arguments by position; a rename or a moved
parameter here would silently stop it counting."""
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from cssident import IntegrationFailureError, SensMethod, TimeGrid, css, odesens
from cssident.bench import realize

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


def test_selections_call_the_traced_qr_bindings(monkeypatch):
    # the tracer counts linalg.qr_col_pivoted and linalg.qr_unpivoted through
    # css's from-import bindings; a start that bypassed them would zero those
    # per-layer counts while every patch target still resolved
    calls = []

    def counting(name, fn):
        def wrapper(a):
            calls.append((name, np.array(a, copy=True)))
            return fn(a)
        return wrapper

    for name in ("qr_col_pivoted", "qr_unpivoted"):
        monkeypatch.setattr(css, name, counting(name, getattr(css, name)))
    chi = realize({"family": "ships", "n": 80, "p": 40, "spectrum": {"k": 8}}, 0)
    for algorithm in ("b1", "b4", "b3", "srrqr"):
        calls.clear()
        getattr(css, f"css_{algorithm}")(chi, 8)
        names = [name for name, _ in calls]
        start = "qr_col_pivoted" if algorithm == "srrqr" else "qr_unpivoted"
        assert names[0] == start and np.array_equal(calls[0][1], chi), algorithm
        assert names.count("qr_col_pivoted") == (algorithm == "srrqr"), algorithm


def test_no_svir_method_integrates_through_the_traced_binding(monkeypatch):
    # the tracer counts odesens.integrate calls, RK4 steps and rhs evaluations
    # through the module binding; both methods run their own scalar RK4, so
    # those counts read 0 on the SVIR path, also where an interval fails and
    # is replayed step by step (gamma = 285 overflows in interval 1)
    calls, integrate = [], odesens.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(odesens, "integrate", counting)
    for method in (SensMethod.central_fd(), SensMethod.complex_step()):
        odesens.svir_sensitivity(odesens.NOMINAL_SVIR, None, TimeGrid.days(5),
                                 method, 4)
        with pytest.raises(IntegrationFailureError):
            odesens.svir_sensitivity(odesens.SvirParams(gamma=285.0), None,
                                     TimeGrid.days(5), method, 100)
        assert calls == [], method.kind
