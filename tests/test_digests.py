from digests import digests


def test_reduced_digests_repeat():
    first = digests(full=False)
    assert first == digests(full=False)
    assert set(first) == {"index", "forward", "forward_float32", "ties",
                          "runs"}
    assert first["runs"]["criterion_10"]["model.flat"]
