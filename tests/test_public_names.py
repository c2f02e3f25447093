"""Every name the package exports resolves, and none is listed twice."""

import radioscope


def test_all_names_resolve():
    missing = [name for name in radioscope.__all__ if not hasattr(radioscope, name)]
    assert missing == []


def test_all_names_unique():
    assert len(radioscope.__all__) == len(set(radioscope.__all__))
