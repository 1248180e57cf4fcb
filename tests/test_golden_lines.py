"""The golden-file check names where generated lines and the file part."""

import pytest

from golden_lines import assert_matches


def test_names_first_differing_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a\nb\nc\n")
    assert_matches(path, ["a", "b", "c"])
    with pytest.raises(AssertionError, match="g.txt line 2: generated 'x', file has 'b'"):
        assert_matches(path, ["a", "x", "y"])
    with pytest.raises(AssertionError, match="2 lines generated, 3 in the file"):
        assert_matches(path, ["a", "b"])
