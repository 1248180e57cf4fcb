"""Line-by-line golden files: the check the tests run and the printout that regenerates them.

A golden module generates its lines with one function, compares them with
its file under pytest through ``assert_matches``, and regenerates the file
when run as a script through ``print_lines``.
"""

from pathlib import Path


def assert_matches(path: Path, actual: list) -> None:
    """Fail naming the first line number where ``actual`` differs from the file."""
    expected = path.read_text().splitlines()
    for number, (got, want) in enumerate(zip(actual, expected), start=1):
        assert got == want, f"{path.name} line {number}: generated {got!r}, file has {want!r}"
    assert len(actual) == len(expected), (
        f"{path.name}: {len(actual)} lines generated, {len(expected)} in the file")


def print_lines(lines: list) -> None:
    """Write the lines as the golden file holds them, for redirecting into it."""
    print("\n".join(lines))
