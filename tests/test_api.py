"""The package's public names: ``degpoly.__all__`` is exactly what it exports."""

import degpoly


def test_all_names_resolve_once_and_star_import_binds_them():
    names = degpoly.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(degpoly, name)]
    assert missing == []
    namespace: dict = {}
    exec("from degpoly import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
