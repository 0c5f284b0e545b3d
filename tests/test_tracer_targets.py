"""Names that code outside the package resolves must exist: every function
the traced benchmark wraps (perfbench/tracer.py TARGETS), so that a rename in
the package fails here and not only in the traced benchmark run.  The
tracer's counts functions read fields of the wrapped functions' results, so
they are applied to real small results too."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_to_callables(tracer):
    assert tracer.TARGETS
    for mod_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{mod_name}.{attr}"


def test_tracer_counts_read_real_results(tracer, tmp_path):
    from delpezzo.characters import CharacterChi
    from delpezzo.cli import Cache
    from delpezzo.counting import _direct_box, direct_count, torsor_count

    direct = direct_count(-1, 30)
    box = _direct_box(-1, 10)
    torsor = torsor_count(-1, 30)
    L1 = CharacterChi(-1).L1(1e-3)
    cache = Cache(tmp_path)
    calls = {  # span name: (args, result) of one real call
        "cli.cache_get": ((cache, "count", {"a": -1}), cache.get("count", {"a": -1})),
        "counting.direct": ((-1, 30), direct),
        "counting.direct_box": ((-1, 10), box),
        "counting.torsor": ((-1, 30), torsor),
        "characters.L1": ((None, 1e-3), L1),
    }
    counted = {name: counts for _, _, name, counts in tracer.TARGETS if counts is not None}
    assert set(counted) == set(calls)
    got = {name: counts(*calls[name]) for name, counts in counted.items()}
    assert got["cli.cache_get"] == {"hits": 0}
    assert got["counting.direct"] == {"points": direct.count} and direct.count > 0
    assert got["counting.direct_box"] == {"points": len(box), "scanned": 21 * 2 * 10 * 10}
    assert got["counting.torsor"] == {
        "points": torsor.count,
        "visited": torsor.stats["visited"],
        "weighted": torsor.stats["weighted_positive"],
    }
    assert torsor.count == direct.count == 2 * torsor.stats["weighted_positive"]
    assert torsor.stats["visited"] > 0
    assert got["characters.L1"] == {"terms": L1.cut} and L1.cut > 0
