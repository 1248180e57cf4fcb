"""Manifest golden: the text ``format_manifest`` writes for a run.

``tests/manifests.txt`` holds the full manifest of one network per family x
ReLU variant (both plain pairings) x ``drop_bn_with_relu``, each at its
family's smallest depth, plus plain-84 with its note line and one network
built from explicit stage block counts. ``eval --manifest`` checks a file by
regenerating it from its header, so these bytes are what an old run's
manifest must still read as.

Regenerate (only for an intended change to the manifest format):
    PYTHONPATH=src python tests/test_manifests.py > tests/manifests.txt
"""

from pathlib import Path

from propmod.networks import NetworkConfig, build_network, format_manifest

GOLDEN = Path(__file__).parent / "manifests.txt"

# (family, smallest depth, variant fields) for every ReLU variant
_VARIANTS = (
    [("plain", depth, {"ratio": ratio, "pairing": pairing}) for pairing in ("post", "pre")
     for ratio, depth in (("1:1", 8), ("2:1", 8), ("3:1", 11), ("3:2", 11),
                          ("4:1", 14), ("4:3", 14))]
    + [("resnet-preact", 8, {"removal": r}) for r in ("none", "first", "second")]
    + [("resnet-preact-bottleneck", 11, {"removal": r}) for r in ("none", "1", "2", "3")]
    + [("dfn-mr1", 8, {"removal": r}) for r in ("none", "type1", "type2")]
)


def manifest_networks():
    for drop in (False, True):
        for family, depth, variant in _VARIANTS:
            yield NetworkConfig(family=family, depth=depth, drop_bn_with_relu=drop, **variant)
    yield NetworkConfig(family="plain", depth=84, ratio="2:1")
    yield NetworkConfig(family="resnet-preact-bottleneck", stage_blocks=(1, 2, 1),
                        removal="2", num_classes=100, seed=3)


def manifest_lines():
    return "".join(format_manifest(build_network(cfg)) for cfg in manifest_networks()).splitlines()


def test_manifests_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = manifest_lines()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    print("\n".join(manifest_lines()))
