"""Names that code outside the package resolves must exist: every function
the traced benchmark wraps (perfbench/tracer.py TARGETS), so that a rename in
the package fails here and not only in the traced benchmark run, and every
name the package exports."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{mod_name}.{attr}"


def test_package_exports_resolve():
    import delpezzo

    missing = [name for name in delpezzo.__all__ if not hasattr(delpezzo, name)]
    assert not missing, missing
