"""The package's public names."""

import luequiv as lq


def test_every_public_name_resolves():
    missing = [name for name in lq.__all__ if not hasattr(lq, name)]
    assert missing == []
