import ssrlab


def test_all_names_resolve_once():
    # a stale entry would make `from ssrlab import *` raise AttributeError
    names = ssrlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ssrlab, n)] == []
    namespace = {}
    exec("from ssrlab import *", namespace)
    assert set(names) <= set(namespace)
