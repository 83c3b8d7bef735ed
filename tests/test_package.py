"""The package's public names: `ashg.__all__` lists each export once, and
every listed name exists, so a removed export cannot linger in it."""

from __future__ import annotations

import ashg


def test_all_has_no_duplicates():
    assert len(ashg.__all__) == len(set(ashg.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in ashg.__all__ if not hasattr(ashg, name)]
    assert missing == []
