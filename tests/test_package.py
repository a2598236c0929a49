"""The package's export list names each public object once."""

import laros


def test_export_list_resolves_without_repeats():
    assert len(set(laros.__all__)) == len(laros.__all__)
    missing = [name for name in laros.__all__ if not hasattr(laros, name)]
    assert missing == []
    namespace = {}
    exec("from laros import *", namespace)
    assert set(laros.__all__) <= set(namespace)
