"""Audit golden: the stdout and ``--out`` CSV of ``propmod audit``.

``tests/audits.txt`` holds, for every family x ReLU variant (both plain
pairings) x ``--drop-bn-with-relu`` at the family's smallest depth, plus
plain-84 with its note line, one network built from explicit stage block
counts and one 100-class classifier, the command line, what it prints and
the CSV it writes. The audit walks the recorded forward tape, so these bytes
pin what the forward pass executes: conv and ReLU counts per region, their
FLOPs and the parameters.

Regenerate (only for an intended change to the audit output):
    PYTHONPATH=src python tests/test_audits.py > tests/audits.txt
"""

import contextlib
import io
import tempfile
from pathlib import Path

from golden_lines import assert_matches, print_lines
from propmod.cli import main

GOLDEN = Path(__file__).parent / "audits.txt"

# (arch, smallest depth, variant flags) for every ReLU variant
_VARIANTS = (
    [("plain", depth, ["--ratio", ratio, "--pairing", pairing]) for pairing in ("post", "pre")
     for ratio, depth in (("1:1", 8), ("2:1", 8), ("3:1", 11), ("3:2", 11),
                          ("4:1", 14), ("4:3", 14))]
    + [("resnet-preact", 8, ["--removal-type", r]) for r in ("none", "first", "second")]
    + [("resnet-preact-bottleneck", 11, ["--removal-type", r]) for r in ("none", "1", "2", "3")]
    + [("dfn-mr1", 8, ["--removal-type", r]) for r in ("none", "type1", "type2")]
)


def audit_command_lines():
    for drop in ([], ["--drop-bn-with-relu"]):
        for arch, depth, variant in _VARIANTS:
            yield ["--arch", arch, "--depth", str(depth), *variant, *drop]
    yield ["--arch", "plain", "--depth", "84", "--ratio", "2:1"]
    yield ["--arch", "resnet-preact-bottleneck", "--stage-blocks", "1,2,1",
           "--removal-type", "2", "--classes", "100", "--seed", "3"]
    yield ["--arch", "resnet-preact", "--depth", "14", "--removal-type", "first",
           "--classes", "100"]


def audit_lines():
    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for argv in audit_command_lines():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["audit", *argv, "--out", "audit.csv"])
            lines.append(f"$ propmod audit {' '.join(argv)} --out audit.csv (exit {code})")
            lines += stdout.getvalue().splitlines()
            lines.append("--- audit.csv")
            lines += Path("audit.csv").read_text().splitlines()
    return lines


def test_audits_match_golden():
    assert_matches(GOLDEN, audit_lines())


if __name__ == "__main__":
    print_lines(audit_lines())
