"""The benchmark's tracer wraps package functions by module attribute; a
renamed or deleted attribute must fail here rather than only in a traced
benchmark run."""

import importlib
from pathlib import Path

import pytest

import moegather

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("full", [True, False])
def test_tracer_installs_and_restores_every_site(monkeypatch, full):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer_mod = importlib.import_module("tracer")
    sites = [(module, attr) for plan in tracer_mod._FULL for module, attr in plan[-1]]
    before = {(id(module), attr): getattr(module, attr) for module, attr in sites}
    tracer = tracer_mod.Tracer(full=full)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is before[id(module), attr] for module, attr in sites)
    for name in moegather.__all__:
        getattr(moegather, name)
