"""Command-line entry point: train / eval / audit / gradcheck / collapse-check / sweep.

Exit codes: 0 ok, 1 usage or configuration error, 2 numerical failure
(diverged training, failed gradient or collapse check), 3 data error.
The dataset root comes from --data-dir or the PRPT_DATA_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .audit import audit, collapse_check
from .autograd import gradcheck, seeded_rng
from .checkpoint import CheckpointError, load_training_state
from .data import DataError, load_cifar, make_synthetic
from .layers import BatchNormState
from .networks import (FAMILIES, NetworkConfig, build_network, config_from_manifest_header,
                       format_manifest, parse_manifest, summarize)
from .train import NumericalFailure, TrainConfig, aggregate_runs, evaluate, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_network_flags(p):
    p.add_argument("--arch", default="plain", choices=FAMILIES, help="network family")
    p.add_argument("--depth", type=int, default=None, help="total weighted-layer count")
    p.add_argument("--stage-blocks", default=None,
                   help="custom per-stage block counts, e.g. 14,14,13 (overrides --depth)")
    p.add_argument("--module", default="paired", choices=["paired", "proportional"],
                   help="module kind; proportional removes ReLUs per --ratio/--removal-type")
    p.add_argument("--ratio", default=None,
                   help="conv:ReLU ratio N:M for the plain family (default 2:1 when proportional)")
    p.add_argument("--removal-type", default=None,
                   help="which ReLU to remove: first/second (building), 1/2/3 (bottleneck), "
                        "type1/type2 (merge-run)")
    p.add_argument("--pairing", default="post", choices=["post", "pre"],
                   help="activation placement for the plain family")
    p.add_argument("--drop-bn-with-relu", action="store_true",
                   help="also remove the batch norm adjacent to each removed ReLU")


def _add_data_flags(p):
    p.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "synthetic"],
                   help="dataset to use")
    p.add_argument("--data-dir", default=None, help="dataset root (default: $PRPT_DATA_DIR or ./data)")
    p.add_argument("--subset", type=int, default=None, metavar="N",
                   help="train on a deterministic N-sample subset")
    p.add_argument("--synthetic-count", type=int, default=1024,
                   help="sample count when --dataset synthetic")


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=400, help="training epochs")
    p.add_argument("--batch-size", type=int, default=64, help="total mini-batch size")
    p.add_argument("--lr", type=float, default=0.1, help="base learning rate")
    p.add_argument("--momentum", type=float, default=0.9, help="momentum coefficient")
    p.add_argument("--nesterov", action=argparse.BooleanOptionalAction, default=True,
                   help="use the Nesterov momentum form")
    p.add_argument("--weight-decay", type=float, default=1e-4, help="L2 weight decay")
    # accepted for old command lines and sweep specs; batches are assembled in
    # the training loop and every run is bit-reproducible whatever its value
    p.add_argument("--workers", type=int, default=1,
                   help="data workers; 1 guarantees bit-reproducible runs")
    p.add_argument("--no-augment", action="store_true", help="disable crop/flip augmentation")


def build_parser() -> _Parser:
    parser = _Parser(prog="propmod",
                     description="Train and audit networks with proportional conv:ReLU modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one configuration",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_network_flags(p)
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0, help="global seed")
    p.add_argument("--out", default="out", help="output directory root")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_network_flags(p)
    _add_data_flags(p)
    p.add_argument("--seed", type=int, default=0, help="global seed")
    p.add_argument("--ckpt", required=True, help="checkpoint file to load")
    p.add_argument("--manifest", default=None, help="network manifest to rebuild the model from")

    p = sub.add_parser("audit", help="count convs, ReLUs, FLOPs, and parameters",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_network_flags(p)
    p.add_argument("--classes", type=int, default=10, choices=[10, 100], help="classifier width")
    p.add_argument("--seed", type=int, default=0, help="global seed")
    p.add_argument("--out", default=None, help="also write the audit as CSV here")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check (double precision)",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_network_flags(p)
    p.add_argument("--seed", type=int, default=0, help="global seed")
    p.add_argument("--eps", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="max relative error allowed; exceeding it exits nonzero")
    p.add_argument("--sample", type=int, default=64, help="coordinates checked per tensor")

    p = sub.add_parser("collapse-check", help="stacked conv pair vs composed single conv",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--in-channels", type=int, default=2, help="input channels")
    p.add_argument("--mid-channels", type=int, default=3, help="channels between the convs")
    p.add_argument("--out-channels", type=int, default=2, help="output channels")
    p.add_argument("--kernel", type=int, default=3, help="kernel extent of both convs")
    p.add_argument("--interior", default="none", choices=["none", "bn", "relu"],
                   help="what sits between the convolutions")
    p.add_argument("--probes", type=int, default=10, help="random probe inputs")
    p.add_argument("--seed", type=int, default=0, help="global seed")
    p.add_argument("--threshold", type=float, default=1e-10,
                   help="max deviation for an affine stack to count as collapsed")

    p = sub.add_parser("sweep", help="run a grid of cells x seeds and aggregate mean/std",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("spec", help="JSON sweep specification")
    p.add_argument("--out", default="out/sweep", help="output directory")
    p.add_argument("--parallel", type=int, default=1, help="cells run in this many processes")
    return parser


# -- shared construction -------------------------------------------------------


# the variant ``--module proportional`` builds when the family's own flag is not given
_PROPORTIONAL = {"plain": {"ratio": "2:1"}, "resnet-preact": {"removal": "first"},
                 "resnet-preact-bottleneck": {"removal": "1"}, "dfn-mr1": {"removal": "type1"}}


def _network_config(args, num_classes: int) -> NetworkConfig:
    """The network a command line asks for; ``NetworkConfig`` refuses flags
    its family cannot build."""
    variant = {"ratio": "1:1", "removal": "none"}
    if args.module == "proportional":
        variant.update(_PROPORTIONAL[args.arch])
    given = {"ratio": args.ratio, "removal": args.removal_type}
    variant.update((k, v) for k, v in given.items() if v is not None)
    blocks = tuple(int(x) for x in args.stage_blocks.split(",")) if args.stage_blocks else None
    return NetworkConfig(family=args.arch, depth=None if blocks else args.depth,
                         stage_blocks=blocks, num_classes=num_classes, pairing=args.pairing,
                         drop_bn_with_relu=args.drop_bn_with_relu, seed=args.seed, **variant)


def _train_configs(args) -> tuple:
    """The resolved (NetworkConfig, TrainConfig) of a train command line."""
    net_cfg = _network_config(args, 100 if args.dataset == "cifar100" else 10)
    return net_cfg, TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr,
        momentum=args.momentum, nesterov=args.nesterov, weight_decay=args.weight_decay,
        seed=args.seed, augment=not args.no_augment,
    )


def _load(args, split: str):
    """One split of the command line's dataset; --subset draws from the train split."""
    if args.dataset == "synthetic":
        if split == "train":
            return make_synthetic(10, args.synthetic_count, args.seed, split="train")
        return make_synthetic(10, max(args.synthetic_count // 4, 10), args.seed + 1, split="test")
    subset = (args.subset, args.seed) if split == "train" and args.subset is not None else None
    return load_cifar(args.data_dir, args.dataset, split, subset=subset)


def _run_id(cfg: NetworkConfig) -> str:
    """Directory name of a train run: distinct for every distinct resolved config."""
    bits = [cfg.family, f"d{cfg.depth}" if cfg.depth is not None
            else "b" + "-".join(map(str, cfg.stage_blocks))]
    bits += ["proportional", cfg.variant.replace(":", "-")] if cfg.variant else ["paired"]
    if cfg.pairing != "post":
        bits.append(cfg.pairing)
    if cfg.drop_bn_with_relu:
        bits.append("dropbn")
    if cfg.num_classes != 10:
        bits.append(f"c{cfg.num_classes}")
    bits.append(f"s{cfg.seed}")
    return "-".join(bits)


def _train_run(args, run_name=None):
    """Load data, build the network, write the manifest and fit one run in
    ``<out>/<run_name or run id>``; returns (run directory, RunRecord)."""
    net_cfg, cfg = _train_configs(args)
    train_data, test_data = _load(args, "train"), _load(args, "test")
    model = build_network(net_cfg)
    out_dir = Path(args.out) / (run_name or _run_id(net_cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.txt").write_text(format_manifest(model))
    return out_dir, fit(model, train_data, test_data, cfg, out_dir=out_dir,
                        resume_from=args.resume)


# -- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    out_dir, record = _train_run(args)
    print(f"run {out_dir.name}: final test accuracy {record.final_test_acc:.4f} "
          f"(best {record.best_test_acc:.4f}), wall {record.wall_time:.1f}s")
    names = ("manifest.txt", "curves.csv", "ckpt-best.bin", "ckpt-final.bin")
    print(f"artifacts: {out_dir}/{' '.join(n for n in names if (out_dir / n).is_file())}")
    return EXIT_OK


def _manifest_network(path: str):
    """The network a manifest's header describes; a ValueError naming the file
    if it cannot be read, lacks a header field or differs from that network's."""
    try:
        text = Path(path).read_text()
        model = build_network(config_from_manifest_header(parse_manifest(text)))
    except OSError as err:
        raise ValueError(f"cannot read manifest {path}: {err.strerror}") from None
    except KeyError as err:
        raise ValueError(f"manifest {path} has no {err.args[0]}= field in its header "
                         "line") from None
    except ValueError as err:
        raise ValueError(f"manifest {path}: {err}") from None
    # the header names the network; its block lines must be the ones it builds
    if format_manifest(model) != text:
        raise ValueError(f"manifest {path} does not match the network its header describes")
    return model


def cmd_eval(args) -> int:
    test_data = _load(args, "test")
    if args.manifest:
        model = _manifest_network(args.manifest)
    else:
        model = build_network(_network_config(args, test_data.num_classes))
    load_training_state(args.ckpt, model)
    print(f"test accuracy {evaluate(model, test_data):.4f} ({len(test_data)} samples)")
    return EXIT_OK


def cmd_audit(args) -> int:
    net_cfg = _network_config(args, args.classes)
    summary = summarize(build_network(net_cfg))
    r = summary.report
    shape = (f"depth={net_cfg.depth}" if net_cfg.depth is not None
             else f"depth=custom blocks={','.join(map(str, net_cfg.stage_blocks))}")
    print(f"arch={net_cfg.family} {shape} ratio={net_cfg.ratio} removal={net_cfg.removal}")
    print(f"param_count={r.param_count} flops_conv={r.flops_conv} flops_relu={r.flops_relu}")
    print(f"trunk_convs={r.n_conv} trunk_relus={r.n_relu} trunk_ratio={r.ratio_text}")
    print(str(summary))
    if args.out:
        lines = ["region,convs,relus,params,flops_conv"]
        lines += [f"{row.name},{row.convs},{row.relus},{row.params},{row.flops_conv}"
                  for row in summary.rows]
        lines.append(f"total,{r.total_conv},{r.total_relu},{r.param_count},{r.flops_conv}")
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.depth is None and not args.stage_blocks:
        args.depth = 11 if args.arch == "resnet-preact-bottleneck" else 8
    net_cfg = replace(_network_config(args, 10), precision="double")
    model = build_network(net_cfg)
    rng = seeded_rng(args.seed, "gradcheck-cli")
    x = rng.standard_normal((2, 3, 8, 8))
    labels = rng.integers(0, 10, size=2)
    result = gradcheck(model.loss_builder(x, labels), model.store,
                       eps=args.eps, sample=args.sample, seed=args.seed)
    status = "PASS" if result.passed(args.threshold) else "FAIL"
    print(f"gradcheck {args.arch} depth {net_cfg.depth or net_cfg.stage_blocks}: "
          f"max rel err {result.max_rel_err:.3e} over {result.checked} coords "
          f"({result.skipped} near-kink skipped) -> {status}")
    return EXIT_OK if status == "PASS" else EXIT_NUMERICAL


def cmd_collapse_check(args) -> int:
    rng = seeded_rng(args.seed, "collapse-cli")
    k = args.kernel
    a = rng.standard_normal((args.mid_channels, args.in_channels, k, k))
    b = rng.standard_normal((args.out_channels, args.mid_channels, k, k))
    interior = None if args.interior == "none" else args.interior
    if interior == "bn":
        interior = BatchNormState(
            gamma=rng.standard_normal(args.mid_channels) * 0.5 + 1.0,
            beta=rng.standard_normal(args.mid_channels) * 0.1,
            running_mean=rng.standard_normal(args.mid_channels) * 0.1,
            running_var=np.abs(rng.standard_normal(args.mid_channels)) + 0.5,
        )
    report = collapse_check(a, b, interior=interior, probes=args.probes,
                            seed=args.seed, threshold=args.threshold)
    ok = report.collapsible == (args.interior in ("none", "bn"))
    print(str(report))
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cell_args(base: dict, cell: dict, seed: int, out_root: str) -> list:
    """The train command line of one (cell, seed): each key is a train option's
    dest, a bool that differs from the option's default becomes ``--x`` or ``--no-x``."""
    defaults = vars(build_parser().parse_args(["train"]))
    argv = ["train", "--seed", str(seed), "--out", str(Path(out_root) / cell["name"])]
    for key, value in {**base, **cell}.items():
        if key == "name":
            continue
        if key in ("command", "seed", "out", "resume"):
            raise ValueError(f"sweep key {key!r} is set by the sweep itself")
        if key not in defaults:
            raise ValueError(f"unknown sweep key {key!r}: keys are train option names "
                             f"with '_' for '-'")
        flag = "--" + key.replace("_", "-")
        if isinstance(defaults[key], bool):
            if value != defaults[key]:
                argv.append(flag if value else "--no-" + flag[2:])
        elif value is not None:
            argv += [flag, str(value)]
    return argv


def _run_sweep_cell(job):
    """One (cell, seed) run; module-level so process pools can pickle it."""
    _, seed, args = job
    return _train_run(args, f"seed{seed}")[1].final_test_acc


def cmd_sweep(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise ValueError(f"sweep spec not found: {spec_path}")
    spec = json.loads(spec_path.read_text())
    cells = spec.get("cells") or []
    if not cells:
        raise ValueError("sweep spec has no cells")
    repeats = int(spec.get("repeats", 5))
    base = {k: v for k, v in spec.items() if k not in ("cells", "repeats")}
    for i, cell in enumerate(cells):
        cell.setdefault("name", f"cell{i}")

    # every run is resolved before any starts, so a bad cell costs no training
    parser = build_parser()
    jobs, net_cfgs = [], {}
    for cell in cells:
        for seed in range(repeats):
            try:  # a value argparse cannot read exits 1 here, naming its flag
                run_args = parser.parse_args(_cell_args(base, cell, seed, args.out))
                net_cfgs[cell["name"]], _ = _train_configs(run_args)
            except ValueError as err:
                raise ValueError(f"sweep cell {cell['name']} seed {seed}: {err}") from None
            jobs.append((cell["name"], seed, run_args))
    results, failures = {}, []
    # spawned, not forked: forking a process whose BLAS threads run is unsafe
    pool = (ProcessPoolExecutor(args.parallel, mp_context=multiprocessing.get_context("spawn"))
            if args.parallel > 1 else None)
    with pool or nullcontext():
        # each run is a zero-argument call: a pool future's result, or the run itself
        runs = ([pool.submit(_run_sweep_cell, job).result for job in jobs] if pool
                else [partial(_run_sweep_cell, job) for job in jobs])
        for (name, seed, _), run in zip(jobs, runs):
            try:
                results.setdefault(name, []).append((seed, run()))
            except (Exception, SystemExit) as err:  # keep completed cells
                failures.append((name, seed, str(err)))

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = ["cell,arch,depth,module,runs,acc_mean,acc_std"]
    best = (None, -1.0)
    for cell in cells:
        name = cell["name"]
        finals = [acc for _, acc in sorted(results.get(name, []))]
        if not finals:
            continue
        mean, std = aggregate_runs(finals)
        cfg = net_cfgs[name]
        rows.append(f"{name},{cfg.family},{'' if cfg.depth is None else cfg.depth},"
                    f"{'proportional' if cfg.variant else 'paired'},{len(finals)},"
                    f"{mean:.6f},{std:.6f}")
        if mean > best[1]:
            best = (name, mean)
    (out_root / "results.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_root / 'results.csv'} ({len(rows) - 1} cells)")
    if best[0] is not None:
        print(f"winner: {best[0]} (mean accuracy {best[1]:.4f})")
    for name, seed, msg in failures:
        print(f"FAILED cell {name} seed {seed}: {msg}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_NUMERICAL


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "audit": cmd_audit,
    "gradcheck": cmd_gradcheck,
    "collapse-check": cmd_collapse_check,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFailure as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:  # a linear module or an invalid depth among them
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
