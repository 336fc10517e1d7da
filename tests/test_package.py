import fairfl


def test_all_is_sorted_unique_and_resolves():
    names = fairfl.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(fairfl, name)] == []
    # a star import gives exactly these names
    scope: dict = {}
    exec("from fairfl import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == names
