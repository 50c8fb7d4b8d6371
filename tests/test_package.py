import clmat


def test_every_exported_name_resolves():
    missing = [name for name in clmat.__all__ if not hasattr(clmat, name)]
    assert missing == []
