"""The zero-extra-cost claim, verified by graph walk.

Removing a ReLU leaves every parameter tensor and every convolution FLOP
untouched; only the (almost free) ReLU element count drops. The audit walks
the recorded forward tape, so the numbers describe what actually executes.

Run:  python demos/03_zero_cost_audit.py
"""

from propmod import VARIANTS, NetworkConfig, audit, build_network

CASES = {
    ("plain", 38): [("paired", dict(ratio="1:1")), ("2:1", dict(ratio="2:1"))],
    ("resnet-preact", 62): [("paired", dict(removal="none")),
                            ("first", dict(removal="first")),
                            ("second", dict(removal="second"))],
    ("resnet-preact-bottleneck", 110): [(f"type{k}", dict(removal=removal)) for k, removal
                                        in enumerate(VARIANTS["resnet-preact-bottleneck"][1])],
}

for (family, depth), variants in CASES.items():
    print(f"== {family}-{depth} ==")
    print(f"  {'variant':<8} {'params':>9} {'conv FLOPs':>12} {'ReLU FLOPs':>11} {'ratio':>6}")
    for name, kw in variants:
        cfg = NetworkConfig(family=family, depth=depth, seed=0, **kw)
        r = audit(build_network(cfg), input_shape=(1, 3, 32, 32))
        print(f"  {name:<8} {r.param_count:>9} {r.flops_conv:>12} {r.flops_relu:>11} "
              f"{r.ratio_text:>6}")
    print()

print("per-region breakdown of plain-38 with the 2:1 module:")
model = build_network(NetworkConfig(family="plain", depth=38, ratio="2:1", seed=0))
print(audit(model))
