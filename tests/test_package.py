import riemann_bci


def test_public_names_sorted_unique_and_resolvable():
    names = riemann_bci.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(riemann_bci, name)]
    assert not missing, missing
