"""The package namespace: every exported name resolves."""

import padlog


def test_all_exports_resolve():
    names = padlog.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(padlog, n)] == []
    namespace = {}
    exec("from padlog import *", namespace)
    assert set(names) <= set(namespace)
