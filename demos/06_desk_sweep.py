"""Paired vs proportional, run as a seeded sweep with mean +/- std aggregation.

By default this runs a fast synthetic-data configuration. With --cifar it
runs the desk-scale probe from the acceptance suite instead (plain-38, a
5000-sample subset, 30 epochs, 3 seeds; hours on one CPU) on the CIFAR-10
binary archives in PRPT_DATA_DIR (./data if unset).

Run:  python demos/06_desk_sweep.py [--cifar]
"""

import json
import sys
import tempfile
from pathlib import Path

from propmod.cli import main

use_cifar = "--cifar" in sys.argv

if use_cifar:
    spec = {
        "dataset": "cifar10", "subset": 5000, "epochs": 30, "batch_size": 64,
        "repeats": 3,
        "cells": [
            {"name": "paired-38", "arch": "plain", "depth": 38, "module": "paired"},
            {"name": "prop21-38", "arch": "plain", "depth": 38,
             "module": "proportional", "ratio": "2:1"},
        ],
    }
else:
    spec = {
        "dataset": "synthetic", "synthetic_count": 128, "epochs": 4,
        "batch_size": 32, "no_augment": True, "repeats": 3,
        "cells": [
            {"name": "paired-8", "arch": "plain", "depth": 8, "module": "paired"},
            {"name": "prop21-8", "arch": "plain", "depth": 8,
             "module": "proportional", "ratio": "2:1"},
        ],
    }

workdir = Path(tempfile.mkdtemp(prefix="propmod-sweep-"))
spec_path = workdir / "spec.json"
spec_path.write_text(json.dumps(spec, indent=2))
code = main(["sweep", str(spec_path), "--out", str(workdir / "out")])
print((workdir / "out" / "results.csv").read_text())
sys.exit(code)
