"""The package's public export list."""

import macmahon


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from macmahon import *", namespace)
    assert len(set(macmahon.__all__)) == len(macmahon.__all__)
    for name in macmahon.__all__:
        assert namespace[name] is getattr(macmahon, name), name
