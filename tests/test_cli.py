"""CLI surface: flags, exit codes, artifacts, golden help text."""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import propmod
from propmod.checkpoint import load_tensors, save_tensors
from propmod.cli import _cell_args, _run_id, _train_configs, build_parser, main
from propmod.data import load_or_compute_norm_stats
from propmod.networks import NetworkConfig, build_network, format_manifest

from archives import CKPT_COUNT_AT, CKPT_DIM_AT, link_archives, write_overrunning_checkpoint

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
# the directory holding the imported propmod, so a child process runs the code
# under test whether it comes from a checkout (PYTHONPATH=src) or an install
PACKAGE_ROOT = str(Path(propmod.__file__).resolve().parent.parent)


def run_cli(argv, **kw):
    return subprocess.run([sys.executable, "-m", "propmod.cli", *argv],
                          capture_output=True, text=True, **kw)


class TestHelpGolden:
    @pytest.mark.parametrize("cmd", ["main", "train", "eval", "audit", "gradcheck",
                                     "collapse-check", "sweep"])
    def test_help_matches_golden(self, cmd):
        argv = ["--help"] if cmd == "main" else [cmd, "--help"]
        # a minimal environment keeps the help text reproducible
        result = run_cli(argv, env={"COLUMNS": "80", "PATH": "/usr/bin:/bin",
                                    "PYTHONPATH": PACKAGE_ROOT})
        assert result.returncode == 0, result.stderr
        expected = (GOLDEN / f"help_{cmd}.txt").read_text()
        assert result.stdout == expected

    def test_every_spec_flag_listed(self):
        text = (GOLDEN / "help_train.txt").read_text()
        for flag in ["--arch", "--depth", "--module", "--ratio", "--removal-type",
                     "--pairing", "--drop-bn-with-relu", "--dataset", "--data-dir",
                     "--subset", "--epochs", "--batch-size", "--lr", "--momentum",
                     "--nesterov", "--weight-decay", "--seed", "--workers", "--out"]:
            assert flag in text, f"{flag} missing from train --help"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--no-such-flag"])
        assert exc.value.code == 1

    def test_linear_ratio_rejected(self, capsys):
        assert main(["train", "--arch", "plain", "--depth", "8", "--ratio", "1:0",
                     "--dataset", "synthetic"]) == 1
        assert "linear module" in capsys.readouterr().err

    def test_invalid_depth_rejected(self, capsys):
        assert main(["audit", "--arch", "resnet-preact", "--depth", "40"]) == 1
        assert "nearest valid" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_subset_below_one_is_usage_error(self, cifar10_dir, tmp_path, count, capsys):
        code = main(["train", *PLAIN8, "--dataset", "cifar10", "--data-dir", str(cifar10_dir),
                     "--subset", count, "--epochs", "1", "--out", str(tmp_path / "runs")])
        assert code == 1
        assert f"subset of {count} samples" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()  # rejected before any run directory is made

    @pytest.mark.parametrize("count", ["5", "0"])
    def test_subset_with_synthetic_dataset_is_usage_error(self, tmp_path, count, capsys):
        code = main(["train", *PLAIN8, "--dataset", "synthetic", "--synthetic-count", "20",
                     "--subset", count, "--epochs", "1", "--out", str(tmp_path / "runs")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--subset" in err and "--synthetic-count" in err
        assert not (tmp_path / "runs").exists()

    def test_zero_synthetic_count_is_usage_error(self, tmp_path, capsys):
        code = main(["train", *PLAIN8, "--dataset", "synthetic", "--synthetic-count", "0",
                     "--epochs", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "synthetic dataset of 0 samples" in capsys.readouterr().err

    def test_missing_data_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--arch", "plain", "--depth", "8", "--dataset", "cifar10",
                     "--data-dir", str(tmp_path), "--epochs", "1"])
        assert code == 3

    def test_unreadable_checkpoint_exits_three_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.bin"
        synthetic = ["--dataset", "synthetic", "--synthetic-count", "16"]
        assert main(["eval", *PLAIN8, *synthetic, "--ckpt", str(missing)]) == 3
        assert main(["train", *PLAIN8, *synthetic, "--epochs", "1", "--out", str(tmp_path),
                     "--resume", str(missing)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"checkpoint error: {missing}: cannot read checkpoint: "
                       "No such file or directory"] * 2

    @pytest.mark.parametrize("fault,code,named", [
        ("unreadable", 3, "cannot read checkpoint"),
        ("tensor", 3, "tensor 'stage1.block0.conv1.weight' shape (16, 16, 1, 1) does not match"),
        ("seed", 1, "was written with seed 0, but this run uses seed 1"),
    ])
    def test_refused_resume_makes_no_run_directory(self, fault, code, named, tmp_path, capsys):
        argv = ["train", *PLAIN8, "--dataset", "synthetic", "--synthetic-count", "16",
                "--epochs", "1", "--batch-size", "8"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        ckpt = tmp_path / "plain-d8-paired-s0" / "ckpt-final.bin"
        tensors = load_tensors(ckpt)
        tensors["stage1.block0.conv1.weight"] = np.zeros((16, 16, 1, 1), np.float32)
        save_tensors(tmp_path / "edited.bin", tensors)
        resume = {"unreadable": "missing.bin", "tensor": "edited.bin", "seed": ckpt}[fault]
        capsys.readouterr()
        assert main([*argv, "--seed", str(int(fault == "seed")), "--resume",
                     str(tmp_path / resume), "--out", str(tmp_path / "rs")]) == code
        assert named in capsys.readouterr().err
        assert not (tmp_path / "rs").exists()

    def test_unwritable_output_exits_one_naming_it(self, tmp_path, capsys):
        taken = tmp_path / "a_file"
        taken.write_text("")
        assert main(["audit", *PLAIN8, "--out", str(tmp_path / "no_such_dir" / "a.csv")]) == 1
        assert main(["train", *PLAIN8, "--dataset", "synthetic", "--synthetic-count", "16",
                     "--epochs", "1", "--out", str(taken)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {tmp_path / 'no_such_dir' / 'a.csv'}: "
                       "No such file or directory",
                       f"error: cannot write {taken / 'plain-d8-paired-s0'}: Not a directory"]

    def test_checkpoint_tensor_of_wrong_shape_exits_three_naming_it(self, tmp_path, capsys):
        synthetic = ["--dataset", "synthetic", "--synthetic-count", "16"]
        assert main(["train", *PLAIN8, *synthetic, "--epochs", "1", "--batch-size", "16",
                     "--out", str(tmp_path)]) == 0
        ckpt = tmp_path / "plain-d8-paired-s0" / "ckpt-final.bin"
        tensors = load_tensors(ckpt)
        tensors["stage1.block0.conv1.weight"] = np.zeros((16, 16, 1, 1), np.float32)
        save_tensors(ckpt, tensors)
        capsys.readouterr()
        assert main(["eval", *PLAIN8, *synthetic, "--ckpt", str(ckpt)]) == 3
        assert ("tensor 'stage1.block0.conv1.weight' shape (16, 16, 1, 1) does not match "
                "model shape (16, 16, 3, 3)") in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_divergence_exits_two(self, tmp_path, capsys):
        code = main(["train", *PLAIN8, "--dataset", "synthetic", "--synthetic-count", "16",
                     "--batch-size", "8", "--epochs", "1", "--no-augment", "--lr", "1e30",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == ("numerical failure: loss became non-finite at "
                                           "epoch 0; no checkpoint written\n")
        assert [p.name for p in (tmp_path / "plain-d8-paired-s0").iterdir()] == ["manifest.txt"]

    def test_empty_archive_exits_three_naming_it(self, cifar10_dir, tmp_path, capsys):
        empty = cifar10_dir / "data_batch_2.bin"
        empty.write_bytes(b"")
        code = main(["train", *PLAIN8, "--dataset", "cifar10", "--data-dir", str(cifar10_dir),
                     "--subset", "8", "--epochs", "1", "--out", str(tmp_path / "runs")])
        assert code == 3
        assert f"{empty}: empty archive" in capsys.readouterr().err


class TestTrainCommand:
    def test_artifacts_and_final_line(self, tmp_path, capsys):
        code = main(["train", "--arch", "plain", "--depth", "8", "--dataset", "synthetic",
                     "--synthetic-count", "48", "--epochs", "1", "--batch-size", "24",
                     "--no-augment", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final test accuracy" in out
        run_dir = tmp_path / "plain-d8-paired-s3"
        for artifact in ["manifest.txt", "curves.csv", "ckpt-best.bin", "ckpt-final.bin"]:
            assert (run_dir / artifact).is_file()

    def test_table_one_row_configuration_accepted(self, cifar100_dir, tmp_path):
        # the plain-38 2:1 cell on CIFAR-100, desk-scaled via --subset
        code = main(["train", "--arch", "plain", "--depth", "38", "--module", "proportional",
                     "--ratio", "2:1", "--dataset", "cifar100", "--data-dir", str(cifar100_dir),
                     "--subset", "30", "--epochs", "1", "--batch-size", "30",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_bottleneck_type2_configuration_accepted(self, tmp_path):
        code = main(["train", "--arch", "resnet-preact-bottleneck", "--depth", "11",
                     "--removal-type", "2", "--dataset", "synthetic",
                     "--synthetic-count", "24", "--epochs", "1", "--batch-size", "24",
                     "--no-augment", "--out", str(tmp_path)])
        assert code == 0
        manifest = next(tmp_path.glob("*/manifest.txt")).read_text()
        assert "relu=101" in manifest

    def test_bottleneck_110_type2_config_builds(self):
        # the published-depth variant of the same flag combination
        assert main(["audit", "--arch", "resnet-preact-bottleneck", "--depth", "110",
                     "--removal-type", "2"]) == 0

    def test_data_dir_env_var(self, cifar10_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PRPT_DATA_DIR", str(cifar10_dir))
        code = main(["train", "--arch", "plain", "--depth", "8", "--dataset", "cifar10",
                     "--subset", "20", "--epochs", "1", "--batch-size", "20",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_resume_flag(self, tmp_path):
        argv = ["train", "--arch", "plain", "--depth", "8", "--dataset", "synthetic",
                "--synthetic-count", "24", "--batch-size", "24", "--no-augment",
                "--out", str(tmp_path)]
        assert main(argv + ["--epochs", "1"]) == 0
        ckpt = tmp_path / "plain-d8-paired-s0" / "ckpt-final.bin"
        assert main(argv + ["--epochs", "2", "--resume", str(ckpt)]) == 0

    def test_resume_with_other_seed_is_usage_error(self, tmp_path, capsys):
        argv = ["train", "--arch", "plain", "--depth", "8", "--dataset", "synthetic",
                "--synthetic-count", "24", "--batch-size", "24", "--no-augment",
                "--epochs", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        ckpt = tmp_path / "plain-d8-paired-s0" / "ckpt-final.bin"
        assert main(argv + ["--seed", "1", "--resume", str(ckpt)]) == 1
        assert "seed 0" in capsys.readouterr().err


PLAIN8 = ["--arch", "plain", "--depth", "8"]
BNECK11 = ["--arch", "resnet-preact-bottleneck", "--depth", "11"]


class TestRunId:
    @pytest.mark.parametrize("first,second,ids", [
        (BNECK11 + ["--removal-type", "2"], BNECK11 + ["--removal-type", "3"],
         ["resnet-preact-bottleneck-d11-proportional-2-s0",
          "resnet-preact-bottleneck-d11-proportional-3-s0"]),
        (PLAIN8, PLAIN8 + ["--pairing", "pre"], ["plain-d8-paired-pre-s0", "plain-d8-paired-s0"]),
        (PLAIN8 + ["--ratio", "2:1"], PLAIN8 + ["--ratio", "2:1", "--drop-bn-with-relu"],
         ["plain-d8-proportional-2-1-dropbn-s0", "plain-d8-proportional-2-1-s0"]),
        (PLAIN8, PLAIN8 + ["--dataset", "cifar100", "--subset", "8"],
         ["plain-d8-paired-c100-s0", "plain-d8-paired-s0"]),
    ])
    def test_each_resolved_config_gets_its_own_run(self, first, second, ids, cifar100_dir,
                                                   tmp_path):
        common = ["--dataset", "synthetic", "--synthetic-count", "8",
                  "--data-dir", str(cifar100_dir),
                  "--epochs", "1", "--batch-size", "8", "--no-augment",
                  "--out", str(tmp_path / "out")]
        for variant in (first, second):
            assert main(["train", *common, *variant]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ids


class TestAuditCommand:
    def test_paired_vs_type1_bottleneck_parity(self, capsys, tmp_path):
        reports = {}
        for name, extra in [("paired", ["--module", "paired"]),
                            ("type1", ["--removal-type", "1"])]:
            csv_path = tmp_path / f"{name}.csv"
            assert main(["audit", "--arch", "resnet-preact-bottleneck", "--depth", "29",
                         *extra, "--out", str(csv_path)]) == 0
            out = capsys.readouterr().out
            reports[name] = dict(
                item.split("=") for line in out.splitlines()[:3] for item in line.split()
                if "=" in item)
            assert csv_path.is_file()
        assert reports["paired"]["param_count"] == reports["type1"]["param_count"]
        assert reports["paired"]["flops_conv"] == reports["type1"]["flops_conv"]
        assert int(reports["type1"]["trunk_relus"]) < int(reports["paired"]["trunk_relus"])


    @pytest.mark.parametrize("flags,first", [
        ("--depth 8", "arch=plain depth=8 ratio=1:1 removal=none"),
        ("--depth 38 --ratio 2:1", "arch=plain depth=38 ratio=2:1 removal=none"),
        ("--stage-blocks 1,2,1", "arch=plain depth=custom blocks=1,2,1 ratio=1:1 removal=none"),
        ("--arch resnet-preact --depth 8 --stage-blocks 2,1,1 --removal-type first",
         "arch=resnet-preact depth=custom blocks=2,1,1 ratio=1:1 removal=first"),
    ])
    def test_first_line_names_resolved_network(self, flags, first, capsys):
        assert main(["audit", *flags.split()]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first


class TestGradcheckCommand:
    def test_pass_exit_zero(self, capsys):
        code = main(["gradcheck", "--arch", "resnet-preact", "--removal-type", "first",
                     "--sample", "4"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_two(self, capsys):
        # impossible threshold forces the failure path
        code = main(["gradcheck", "--arch", "plain", "--sample", "2", "--threshold", "0"])
        assert code == 2


class TestCollapseCommand:
    def test_affine_pass(self, capsys):
        assert main(["collapse-check", "--interior", "none"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert main(["collapse-check", "--interior", "bn"]) == 0

    def test_relu_reports_non_collapse(self, capsys):
        assert main(["collapse-check", "--interior", "relu"]) == 0
        out = capsys.readouterr().out
        assert "NOT collapse" in out and "PASS" in out

    @pytest.mark.parametrize("interior", ["none", "bn"])
    def test_zero_probes_is_usage_error(self, interior, capsys):
        assert main(["collapse-check", "--interior", interior, "--probes", "0"]) == 1
        captured = capsys.readouterr()
        assert "probes of 0" in captured.err and "PASS" not in captured.out


class TestSweepCommand:
    def write_spec(self, tmp_path, cells, repeats=2):
        spec = {
            "dataset": "synthetic", "synthetic_count": 32, "epochs": 1,
            "batch_size": 16, "no_augment": True, "repeats": repeats, "cells": cells,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_two_cell_sweep_csv(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, [
            {"name": "paired", "arch": "plain", "depth": 8, "module": "paired"},
            {"name": "prop", "arch": "plain", "depth": 8, "module": "proportional",
             "ratio": "2:1"},
        ], repeats=3)
        assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines[0] == "cell,arch,depth,module,runs,acc_mean,acc_std"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "3"
            mean, std = float(fields[5]), float(fields[6])
            finals = []
            for seed in range(3):
                csv = tmp_path / "out" / fields[0] / f"seed{seed}" / "curves.csv"
                finals.append(float(csv.read_text().splitlines()[-1].split(",")[-1]))
            assert mean == pytest.approx(np.mean(finals), abs=1e-6)
            assert std == pytest.approx(np.std(finals), abs=1e-6)
        assert "winner:" in capsys.readouterr().out

    def test_parallel_sweep_matches_serial(self, tmp_path):
        spec = self.write_spec(tmp_path, [
            {"name": "paired", "arch": "plain", "depth": 8},
            {"name": "prop", "arch": "plain", "depth": 8, "ratio": "2:1"},
        ])
        for parallel in ("1", "2"):
            out = tmp_path / f"out{parallel}"
            assert main(["sweep", str(spec), "--out", str(out), "--parallel", parallel]) == 0
        # the runs' own curves carry the train loss to 8 digits
        for rel in ["results.csv"] + [f"{cell}/seed{seed}/curves.csv"
                                      for cell in ("paired", "prop") for seed in (0, 1)]:
            assert (tmp_path / "out2" / rel).read_bytes() == (tmp_path / "out1" / rel).read_bytes()

    def test_single_repeat_zero_std(self, tmp_path):
        spec = self.write_spec(tmp_path, [{"name": "one", "arch": "plain", "depth": 8}],
                               repeats=1)
        assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 0
        line = (tmp_path / "out" / "results.csv").read_text().splitlines()[1]
        assert line.split(",")[-1] == "0.000000"

    def test_empty_spec_rejected(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"cells": []}))
        assert main(["sweep", str(path)]) == 1

    def test_zero_repeats_exits_one_before_any_run(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, [{"name": "one", "arch": "plain", "depth": 8}],
                               repeats=0)
        assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert "repeats is 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_variant_family_lacks_exits_one_before_any_run(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, [
            {"name": "good", "arch": "plain", "depth": 8},
            {"name": "bad", "arch": "resnet-preact-bottleneck", "depth": 11,
             "removal_type": "7"},
        ], repeats=1)
        assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: sweep cell bad seed 0: resnet-preact-bottleneck "
                                           "removal must be one of none, 1, 2, 3; got '7'\n")
        assert not (tmp_path / "out").exists()

    def test_partial_failure_keeps_completed(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, [
            {"name": "good", "arch": "plain", "depth": 8},
            {"name": "bad", "arch": "resnet-preact", "depth": 40},
        ], repeats=1)
        code = main(["sweep", str(spec), "--out", str(tmp_path / "out")])
        assert code == 2
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert any(line.startswith("good,") for line in lines)
        assert not any(line.startswith("bad,") for line in lines)
        assert "FAILED cell bad" in capsys.readouterr().err


# Network flags of the command lines in this file, README's CLI section and
# demos/06, then each family's --module proportional default and the spellings
# that resolve to a paired network. Each pins the run id and manifest header the
# line has always produced. The paired bottleneck is spelled none alone: its
# manifest says removal=none, and --removal-type 0 exits 1 (TestResolution).
RESOLVED = [
    ("--arch plain --depth 8 --seed 3",
     "plain-d8-paired-s3",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=3 precision=single"),
    ("--arch plain --depth 38 --module proportional --ratio 2:1 --dataset cifar100",
     "plain-d38-proportional-2-1-c100-s0",
     "family=plain depth=38 blocks=6,6,6 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=0 classes=100 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 11 --removal-type 2",
     "resnet-preact-bottleneck-d11-proportional-2-s0",
     "family=resnet-preact-bottleneck depth=11 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=2 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 11 --removal-type 3",
     "resnet-preact-bottleneck-d11-proportional-3-s0",
     "family=resnet-preact-bottleneck depth=11 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=3 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 110 --removal-type 2",
     "resnet-preact-bottleneck-d110-proportional-2-s0",
     "family=resnet-preact-bottleneck depth=110 blocks=12,12,12 widths=16,32,64 "
     "ratio=1:1 removal=2 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --pairing pre",
     "plain-d8-paired-pre-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=pre drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --ratio 2:1",
     "plain-d8-proportional-2-1-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --ratio 2:1 --drop-bn-with-relu",
     "plain-d8-proportional-2-1-dropbn-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=1 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --dataset cifar100",
     "plain-d8-paired-c100-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=100 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 29 --module paired",
     "resnet-preact-bottleneck-d29-paired-s0",
     "family=resnet-preact-bottleneck depth=29 blocks=3,3,3 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 29 --removal-type 1",
     "resnet-preact-bottleneck-d29-proportional-1-s0",
     "family=resnet-preact-bottleneck depth=29 blocks=3,3,3 widths=16,32,64 "
     "ratio=1:1 removal=1 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact --depth 8 --removal-type first",
     "resnet-preact-d8-proportional-first-s0",
     "family=resnet-preact depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=first pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --module paired",
     "plain-d8-paired-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --module proportional --ratio 2:1",
     "plain-d8-proportional-2-1-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 110 --removal-type 1",
     "resnet-preact-bottleneck-d110-proportional-1-s0",
     "family=resnet-preact-bottleneck depth=110 blocks=12,12,12 widths=16,32,64 "
     "ratio=1:1 removal=1 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 38",
     "plain-d38-paired-s0",
     "family=plain depth=38 blocks=6,6,6 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 38 --module proportional --ratio 2:1",
     "plain-d38-proportional-2-1-s0",
     "family=plain depth=38 blocks=6,6,6 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --module proportional",
     "plain-d8-proportional-2-1-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact --depth 8 --module proportional",
     "resnet-preact-d8-proportional-first-s0",
     "family=resnet-preact depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=first pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 11 --module proportional",
     "resnet-preact-bottleneck-d11-proportional-1-s0",
     "family=resnet-preact-bottleneck depth=11 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=1 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch dfn-mr1 --depth 8 --module proportional",
     "dfn-mr1-d8-proportional-type1-s0",
     "family=dfn-mr1 depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=type1 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch dfn-mr1 --depth 8 --removal-type type2",
     "dfn-mr1-d8-proportional-type2-s0",
     "family=dfn-mr1 depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=type2 pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact --depth 8",
     "resnet-preact-d8-paired-s0",
     "family=resnet-preact depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch dfn-mr1 --depth 8",
     "dfn-mr1-d8-paired-s0",
     "family=dfn-mr1 depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact --depth 8 --ratio 1:1",
     "resnet-preact-d8-paired-s0",
     "family=resnet-preact depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact --depth 8 --module proportional --ratio 1:1",
     "resnet-preact-d8-proportional-first-s0",
     "family=resnet-preact depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=first pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --module proportional --ratio 1:1",
     "plain-d8-paired-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 8 --module proportional --removal-type none",
     "plain-d8-proportional-2-1-s0",
     "family=plain depth=8 blocks=1,1,1 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch resnet-preact-bottleneck --depth 11 --removal-type none",
     "resnet-preact-bottleneck-d11-paired-s0",
     "family=resnet-preact-bottleneck depth=11 blocks=1,1,1 widths=16,32,64 "
     "ratio=1:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
    ("--arch plain --stage-blocks 1,2,1 --ratio 3:2 --pairing pre --seed 2",
     "plain-b1-2-1-proportional-3-2-pre-s2",
     "family=plain depth=custom blocks=1,2,1 widths=16,32,64 "
     "ratio=3:2 removal=none pairing=pre drop_bn=0 classes=10 seed=2 precision=single"),
    ("--arch resnet-preact --stage-blocks 2,1,1 --removal-type second --drop-bn-with-relu",
     "resnet-preact-b2-1-1-proportional-second-dropbn-s0",
     "family=resnet-preact depth=custom blocks=2,1,1 widths=16,32,64 "
     "ratio=1:1 removal=second pairing=post drop_bn=1 classes=10 seed=0 precision=single"),
    ("--arch plain --depth 84 --ratio 2:1",
     "plain-d84-proportional-2-1-s0",
     "family=plain depth=84 blocks=14,14,13 widths=16,32,64 "
     "ratio=2:1 removal=none pairing=post drop_bn=0 classes=10 seed=0 precision=single"),
]

# a tiny synthetic run, so a command line that resolves trains in a second
TINY = ["--dataset", "synthetic", "--synthetic-count", "8", "--epochs", "1",
        "--batch-size", "8", "--no-augment"]


class TestResolution:
    @pytest.mark.parametrize("flags,run_id,header", RESOLVED)
    def test_accepted_line_keeps_run_id_and_manifest(self, flags, run_id, header):
        net_cfg, _ = _train_configs(build_parser().parse_args(["train", *flags.split()]))
        assert _run_id(net_cfg) == run_id
        assert format_manifest(build_network(net_cfg)).splitlines()[0] == header

    @pytest.mark.parametrize("flags,named", [
        ("--arch resnet-preact --ratio 3:2", "ratio"),
        ("--arch resnet-preact --module proportional --ratio 2:1", "ratio"),
        ("--arch plain --removal-type first", "removal"),
        ("--arch plain --module proportional --removal-type type1", "removal"),
        ("--arch dfn-mr1 --pairing pre", "pairing"),
        ("--arch resnet-preact-bottleneck --depth 11 --pairing pre", "pairing"),
        ("--arch plain --epochs 0", "epochs"),
        ("--arch resnet-preact-bottleneck --depth 11 --removal-type first",
         "resnet-preact-bottleneck removal must be one of none, 1, 2, 3; got 'first'"),
        ("--arch resnet-preact-bottleneck --depth 11 --removal-type 0",
         "resnet-preact-bottleneck removal must be one of none, 1, 2, 3; got '0'"),
        ("--arch plain --ratio 5:1",
         "plain-stack ratio must be N:M with 1 <= N <= 4 and 0 <= M <= N, got '5:1'"),
    ])
    def test_refused_flag_exits_one_before_any_run(self, flags, named, tmp_path, capsys):
        code = main(["train", "--depth", "8", *TINY, *flags.split(),
                     "--out", str(tmp_path / "runs")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_audit_refuses_flag_family_cannot_build(self, capsys):
        assert main(["audit", "--arch", "resnet-preact", "--depth", "8", "--ratio", "3:2"]) == 1
        assert "ratio" in capsys.readouterr().err

    def test_old_manifest_with_pre_residual_refused(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("family=dfn-mr1 depth=8 blocks=1,1,1 widths=16,32,64 ratio=1:1 "
                            "removal=none pairing=pre drop_bn=0 classes=10 seed=0 "
                            "precision=single\n")
        code = main(["eval", "--dataset", "synthetic", "--ckpt", str(tmp_path / "ckpt.bin"),
                     "--manifest", str(manifest)])
        assert code == 1
        assert "pairing" in capsys.readouterr().err

    @pytest.mark.parametrize("content,named", [
        (None, "cannot read manifest"),
        ("", "no depth= field"),
        ("block name=stage1.block0 relu=11 bn=11\n", "no depth= field"),
        ("family=plain depth=eight blocks=1,1,1\n", "'eight'"),
        ("family=resnet-preact-bottleneck depth=11 blocks=1,1,1 widths=16,32,64 ratio=1:1 "
         "removal=0 pairing=post drop_bn=0 classes=10 seed=0 precision=single\n",
         "resnet-preact-bottleneck removal must be one of none, 1, 2, 3; got '0'"),
    ], ids=["missing", "empty", "header-less", "bad-value", "removal-zero"])
    def test_unusable_manifest_exits_one_naming_it(self, content, named, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        if content is not None:
            manifest.write_text(content)
        code = main(["eval", "--dataset", "synthetic", "--ckpt", str(tmp_path / "ckpt.bin"),
                     "--manifest", str(manifest)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err and named in err

    @staticmethod
    def sweep_with_bad_cell(tmp_path, cell):
        spec = tmp_path / "spec.json"
        cells = [{"name": "good", "arch": "plain", "depth": 8}, {"name": "bad", **cell}]
        spec.write_text(json.dumps({"dataset": "synthetic", "synthetic_count": 8, "epochs": 1,
                                    "batch_size": 8, "repeats": 1, "cells": cells}))
        return ["sweep", str(spec), "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("cell,named", [
        ({"arch": "plain", "depth": 8, "ratoi": "2:1"}, "'ratoi'"),
        ({"arch": "resnet-preact", "depth": 8, "ratio": "3:2"}, "ratio"),
        ({"arch": "plain", "depth": 8, "epochs": 0}, "epochs"),
        ({"arch": "plain", "depth": 8, "seed": 3}, "'seed'"),
        ({"arch": "plain", "depth": 8, "subset": 4}, "--synthetic-count"),
    ])
    def test_bad_sweep_cell_exits_one_before_any_run(self, cell, named, tmp_path, capsys):
        assert main(self.sweep_with_bad_cell(tmp_path, cell)) == 1
        err = capsys.readouterr().err
        assert named in err and "sweep cell bad" in err
        assert not (tmp_path / "out").exists()

    def test_unreadable_sweep_value_exits_one_before_any_run(self, tmp_path, capsys):
        # argparse rejects the value as it rejects it on a command line
        with pytest.raises(SystemExit) as exc:
            main(self.sweep_with_bad_cell(tmp_path, {"arch": "plain", "depth": "eight"}))
        assert exc.value.code == 1
        assert "argument --depth: invalid int value: 'eight'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_bools_differ_from_option_defaults(self):
        argv = _cell_args({"no_augment": True, "nesterov": True},
                          {"name": "c", "nesterov": False, "drop_bn_with_relu": False,
                           "depth": None}, 0, "out")
        assert argv == ["train", "--seed", "0", "--out", str(Path("out") / "c"),
                        "--no-augment", "--no-nesterov"]

    def test_cell_setting_only_ratio_is_listed_proportional(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"dataset": "synthetic", "synthetic_count": 8, "epochs": 1,
                                    "batch_size": 8, "repeats": 1, "cells": [
                                        {"name": "prop", "arch": "plain", "ratio": "2:1",
                                         "depth": 8}]}))
        assert main(["sweep", str(spec), "--out", str(tmp_path / "out")]) == 0
        row = (tmp_path / "out" / "results.csv").read_text().splitlines()[1]
        assert row.startswith("prop,plain,8,proportional,1,")


class TestCommandChecks:
    def test_gradcheck_sample_zero_is_usage_error(self, capsys):
        assert main(["gradcheck", "--sample", "0"]) == 1
        assert "sample of 0" in capsys.readouterr().err

    def test_train_lists_only_written_artifacts(self, tmp_path, capsys):
        assert main(["train", *PLAIN8, *TINY, "--out", str(tmp_path)]) == 0
        listed = capsys.readouterr().out.splitlines()[-1].split("/")[-1].split()
        written = sorted(p.name for p in (tmp_path / "plain-d8-paired-s0").iterdir())
        assert sorted(listed) == written

    def test_eval_reads_only_the_test_split(self, cifar10_dir, tmp_path, capsys):
        test_only = tmp_path / "test-only"
        test_only.mkdir()
        (test_only / "test_batch.bin").write_bytes((cifar10_dir / "test_batch.bin").read_bytes())
        load_or_compute_norm_stats(cifar10_dir, "cifar10")
        (test_only / "normalization-cifar10.json").write_bytes(
            (cifar10_dir / "normalization-cifar10.json").read_bytes())
        assert main(["train", *PLAIN8, *TINY, "--out", str(tmp_path / "runs")]) == 0
        ckpt = tmp_path / "runs" / "plain-d8-paired-s0" / "ckpt-final.bin"
        code = main(["eval", *PLAIN8, "--dataset", "cifar10", "--data-dir", str(test_only),
                     "--ckpt", str(ckpt)])
        assert code == 0
        assert "(20 samples)" in capsys.readouterr().out

    def test_eval_without_norm_cache_builds_no_train_split(self, cifar10_full_archives,
                                                           cifar10_dir, tmp_path, capsys):
        # the constants come from counts over the 50,000 train records, one block
        # at a time: the float32 split alone would be 614 MB, its raw bytes 154 MB
        root = link_archives(cifar10_full_archives, tmp_path / "data")
        (root / "test_batch.bin").unlink()
        (root / "test_batch.bin").write_bytes((cifar10_dir / "test_batch.bin").read_bytes())
        assert main(["train", *PLAIN8, *TINY, "--out", str(tmp_path / "runs")]) == 0
        ckpt = tmp_path / "runs" / "plain-d8-paired-s0" / "ckpt-final.bin"
        tracemalloc.start()
        try:
            code = main(["eval", *PLAIN8, "--dataset", "cifar10", "--data-dir", str(root),
                         "--ckpt", str(ckpt)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and "(20 samples)" in capsys.readouterr().out
        assert (root / "normalization-cifar10.json").is_file()
        assert peak < 50000 * 3072, peak

    def test_eval_manifest_checked_by_regenerating_it(self, tmp_path, capsys):
        assert main(["train", *PLAIN8, "--ratio", "2:1", *TINY, "--out", str(tmp_path)]) == 0
        run = tmp_path / "plain-d8-proportional-2-1-s0"
        ckpt = run / "ckpt-final.bin"
        saved = ckpt.read_bytes()
        argv = ["eval", "--dataset", "synthetic", "--synthetic-count", "8", "--ckpt", str(ckpt),
                "--manifest"]
        capsys.readouterr()
        assert main([*argv, str(run / "manifest.txt")]) == 0
        assert "test accuracy" in capsys.readouterr().out
        # one block line now claims a paired module under a 2:1 header
        text = (run / "manifest.txt").read_text()
        edited = tmp_path / "edited-manifest.txt"
        edited.write_text(text.replace("relu=01", "relu=11", 1))
        assert edited.read_text() != text
        assert main([*argv, str(edited)]) == 1
        assert str(edited) in capsys.readouterr().err
        assert ckpt.read_bytes() == saved
        # refused before the checkpoint is read: reading this one exits 3
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        argv[argv.index(str(ckpt))] = str(bad)
        assert main([*argv, str(edited)]) == 1

    def test_eval_manifest_with_other_class_count_exits_one(self, cifar100_dir, tmp_path,
                                                            capsys):
        assert main(["train", *PLAIN8, *TINY, "--out", str(tmp_path)]) == 0
        run = tmp_path / "plain-d8-paired-s0"
        argv = ["eval", "--dataset", "cifar100", "--data-dir", str(cifar100_dir),
                "--manifest", str(run / "manifest.txt"), "--ckpt"]
        capsys.readouterr()
        assert main([*argv, str(run / "ckpt-final.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "10-class" in err and "100 classes" in err
        # refused before the checkpoint is read: reading this one exits 3
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        assert main([*argv, str(bad)]) == 1


    @pytest.mark.parametrize("command", [
        ["eval", *PLAIN8, "--dataset", "synthetic", "--synthetic-count", "8", "--ckpt"],
        ["train", *PLAIN8, *TINY, "--resume"],
    ], ids=["eval", "train-resume"])
    def test_checkpoint_without_meta_exits_three_naming_it(self, command, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)  # train writes its run directory under ./out
        # the public writer, given only the model's tensors, records no epoch or seed
        ckpt = tmp_path / "params.bin"
        save_tensors(ckpt, build_network(NetworkConfig(family="plain", depth=8))
                     .store.state_arrays())
        assert main([*command, str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'meta.epoch'" in err

    @pytest.mark.parametrize("at,value,named", [
        (CKPT_DIM_AT, 1000, "tensor 'w'"),
        (CKPT_COUNT_AT, 2, "manifest entry 1 of 2"),
    ], ids=["shape", "count"])
    def test_manifest_past_the_payloads_exits_three_naming_it(self, at, value, named,
                                                             tmp_path, capsys):
        ckpt = write_overrunning_checkpoint(tmp_path / "ckpt.bin", at, value)
        assert main(["eval", *PLAIN8, "--dataset", "synthetic", "--synthetic-count", "8",
                     "--ckpt", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and str(ckpt) in err and named in err

    @pytest.mark.parametrize("cache", [
        "",
        '{"mean": [0.5, 0.5], "std": [0.25, 0.25]}',
        '{"mean": [0.5, 0.5, 0.5]}',
        "[0.5, 0.5, 0.5]",
    ], ids=["empty", "two-channel", "no-std", "not-a-dict"])
    def test_bad_normalization_cache_exits_three_naming_it(self, cache, cifar10_dir, tmp_path,
                                                           capsys):
        stats = cifar10_dir / "normalization-cifar10.json"
        stats.write_text(cache)
        code = main(["train", *PLAIN8, "--dataset", "cifar10", "--data-dir", str(cifar10_dir),
                     "--subset", "8", "--epochs", "1", "--batch-size", "8",
                     "--out", str(tmp_path / "runs")])
        assert code == 3
        assert str(stats) in capsys.readouterr().err


class TestDemos:
    @pytest.mark.parametrize("demo", ["01_kernels_and_autograd", "02_block_families",
                                      "03_zero_cost_audit", "04_linear_collapse"])
    def test_fast_demo_runs(self, demo, tmp_path):
        result = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path,
                                capture_output=True, text=True,
                                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT})
        assert result.returncode == 0, result.stderr
        # 01 and 04 print float errors whose last bits depend on the BLAS build
        if demo in ("02_block_families", "03_zero_cost_audit"):
            assert result.stdout == (GOLDEN / f"demo_{demo[:2]}.txt").read_text()
