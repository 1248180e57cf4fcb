"""Every block family and its ReLU-placement variants, as declarative specs.

Each spec carries a boolean mask over conv positions; clearing an entry
removes that position's ReLU and nothing else. The one-line serialization
is exactly what network manifests embed.

Run:  python demos/02_block_families.py
"""

from propmod import audit
from propmod.blocks import VARIANTS, LinearModuleError, block_spec

print("== plain stacks ==")
for ratio in ("1:1", "2:1", "3:2"):
    spec = block_spec("plain-stack", ratio)
    print(f"  ratio {ratio}: relu mask {spec.relu_mask}  ->  {spec.to_line()}")

try:
    block_spec("plain-stack", "2:0")
except LinearModuleError as err:
    print("  ratio 2:0 ->", err)

print("\n== pre-activation building block ==")
for removal in VARIANTS["resnet-preact-building"][1]:
    spec = block_spec("resnet-preact-building", removal)
    report = audit(spec, input_shape=(1, 16, 16, 16))
    print(f"  removal={removal:<7} relu mask {spec.relu_mask}  "
          f"convs:relus {report.n_conv}:{report.n_relu}")

print("\n== post-activation building block (mask position 1 is the post-add ReLU) ==")
for removal, mask in VARIANTS["resnet-building"][1].items():
    print(f"  removal={removal:<7} relu mask {mask}")

print("\n== pre-activation bottleneck ==")
for t, removal in enumerate(VARIANTS["resnet-preact-bottleneck"][1]):
    spec = block_spec("resnet-preact-bottleneck", removal, in_channels=16, mid_channels=16,
                      out_channels=64)
    report = audit(spec, input_shape=(1, 16, 16, 16))
    print(f"  type {t}: relu mask {spec.relu_mask}  ratio {report.ratio_text}")

print("\n== merge-and-run (branch 0 is the edited one) ==")
for removal in VARIANTS["dfn-merge-run"][1]:
    spec = block_spec("dfn-merge-run", removal)
    print(f"  removal={removal:<6} branch0 {spec.relu_mask}  branch1 {spec.relu_mask_b}")
