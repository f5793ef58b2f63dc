from collections import Counter

import pytest

from trinomax import constants, extremal, geometry, maxmod, oracle, phasecurves, spectrum

MODULES = (constants, extremal, geometry, maxmod, oracle, phasecurves, spectrum)


@pytest.fixture
def count_rules(monkeypatch):
    """count_rules(call, *names): how often call() runs each of the spectrum
    input rules named, counted also where a module imported the rule by name;
    rules that did not run are left out."""

    def count(call, *names):
        calls = Counter()
        for name in names:
            rule = getattr(spectrum, name)

            def counted(*args, _name=name, _rule=rule, **kwargs):
                calls[_name] += 1
                return _rule(*args, **kwargs)

            for module in MODULES:
                if getattr(module, name, None) is rule:
                    monkeypatch.setattr(module, name, counted)
        call()
        return dict(calls)

    return count
