"""The benchmark's names exist in the program.

``perfbench/run.py`` imports the program's modules by name, and
``perfbench/tracing.py`` wraps functions in them by name.  A renamed or
deleted name would first fail the benchmark's traced run; here it fails the
test suite.  The module and target lists are read from ``perfbench/`` itself.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    return {(name, key): value for name, module in list(sys.modules.items())
            if name == "spinshield" or name.startswith("spinshield.") for key, value in vars(module).items()}


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    # _import_program sets the BLAS thread variables, unsets SPINSHIELD_THREADS and extends
    # sys.path; monkeypatch restores all of them after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("SPINSHIELD_THREADS", raising=False)
    pkg = _load("run")._import_program()
    tracing = _load("tracing")
    targets = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracing._targets(pkg)]
    node_init = pkg["autodiff"].Node.__init__
    before = _bindings()
    tracer = tracing.Tracer(pkg)
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in targets)
        assert pkg["autodiff"].Node.__init__ is not node_init
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is original for owner, attr, original in targets)
    assert pkg["autodiff"].Node.__init__ is node_init
    after = _bindings()
    assert after.keys() == before.keys() and all(after[key] is value for key, value in before.items())
