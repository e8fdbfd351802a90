"""The layers the benchmark's tracer wraps still exist in the package.

The traced benchmark run patches each ``(module, name)`` in
``perfbench/tracer.py``'s ``LAYERS`` by name; a rename in the package would
break that run without failing any other test here."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.LAYERS
    for modname, name in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        owner, _, attr = name.rpartition(".")
        target = vars(getattr(module, owner)) if owner else vars(module)
        assert callable(target.get(attr)), f"{modname}.{name} is gone"
    # the tracer replaces Subspace.__init__ with one taking (order, vectors)
    from wedgeshift.subspace import Subspace

    assert list(inspect.signature(Subspace.__init__).parameters) == ["self", "order", "vectors"]
