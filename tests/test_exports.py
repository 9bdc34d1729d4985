"""The package's public names."""

import kgforge


def test_every_exported_name_resolves():
    missing = [name for name in kgforge.__all__ if not hasattr(kgforge, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace = {}
    exec("from kgforge import *", namespace)
    assert set(kgforge.__all__) <= set(namespace)
