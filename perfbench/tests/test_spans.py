"""Self-time arithmetic and wrapper installation of the benchmark's tracer.

Run with  python3 -m pytest perfbench/tests  from the repository root.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Recorder, Span, count_under, installed, layer_totals, self_times, union_length  # noqa: E402


def tree():
    # op [0, 10]
    #   a [1, 4]            one child e [2, 3]
    #   a [3, 6]            overlaps the first a
    #   b [8, 12]           outlives its parent; clipped to [8, 10]
    return [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a", 3.0, 6.0, 0, 0),
        Span(3, "b", 8.0, 12.0, 0, 0),
        Span(4, "e", 2.0, 3.0, 1, 0),
    ]


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0
    assert union_length([(0.0, 5.0), (1.0, 2.0), (4.0, 7.0)]) == 7.0
    assert union_length([(3.0, 3.0), (5.0, 4.0)]) == 0.0
    assert union_length([(6.0, 8.0), (0.0, 1.0)]) == 3.0


def test_self_time_subtracts_union_of_children():
    selfs = self_times(tree())
    # op: 10 minus the union [1, 6] + [8, 10] = 10 - 7
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_totals_and_ancestry():
    totals = layer_totals(tree())
    assert totals["a"] == (2, pytest.approx(5.0))
    assert totals["op"] == (1, pytest.approx(3.0))
    assert count_under(tree(), "e", "op") == 1
    assert count_under(tree(), "e", "b") == 0
    assert count_under(tree(), "a", "a") == 0


def test_installed_wrappers_record_nesting_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    rec = Recorder()

    def seen(result, counters):
        counters["inner.results"] += result

    with installed(rec, [(mod, "inner", "inner", seen), (mod, "outer", "outer", None)]):
        assert mod.outer(1) == 4  # inactive: straight through, nothing recorded
        assert rec.spans == []
        rec.active, rec.op = True, 7
        assert rec.call("op", mod.outer, 2) == 6
        rec.active = False
    assert (mod.inner, mod.outer) == originals
    names = [(s.name, s.parent, s.op) for s in rec.spans]
    assert names == [("op", None, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert rec.counters["inner.results"] == 3
    assert all(s.end >= s.start for s in rec.spans)
