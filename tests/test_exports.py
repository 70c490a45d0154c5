"""The package's export list names only what the package defines."""

import finalg


def test_every_export_resolves():
    assert len(set(finalg.__all__)) == len(finalg.__all__)
    for name in finalg.__all__:
        assert hasattr(finalg, name), name
    namespace: dict = {}
    exec("from finalg import *", namespace)
    assert set(finalg.__all__) <= set(namespace)
