"""SGD-with-Nesterov training loop, schedule, metrics, checkpoints.

The update, per parameter, with g the batch-averaged gradient:

    g <- g + weight_decay * w
    v <- momentum * v - lr * g
    w <- w + momentum * v - lr * g        (Nesterov form)
    w <- w + v                            (plain momentum when nesterov off)

Gradients are averaged over the batch (the loss is a mean), so the
learning rate means the same thing at any batch size. The learning rate
is multiplied by the decay factor at each milestone, given as epoch
fractions. Two runs with the same seed produce byte-identical checkpoints
and CSV curves, and so does a run that was interrupted and resumed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import load_training_state, save_training_state
from .data import DatasetHandle, iter_batches


class NumericalFailure(RuntimeError):
    """Non-finite loss or gradient; the last good checkpoint is retained."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    batch_size: int = 64
    base_lr: float = 0.1
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 1e-4
    lr_milestones: tuple = (0.5, 0.75)   # epoch fractions
    lr_decay: float = 0.1
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        ms = self.lr_milestones
        if any(not 0 < m < 1 for m in ms) or any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError(f"lr_milestones must be strictly increasing in (0, 1), got {ms}")

    def hash(self) -> str:
        text = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def lr_at(self, epoch: int) -> float:
        # milestones floor to whole epochs but never land on epoch 0, so very
        # short desk runs still start at base_lr
        passed = sum(1 for frac in self.lr_milestones
                     if epoch >= max(1, int(frac * self.epochs)))
        return self.base_lr * self.lr_decay ** passed


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float


@dataclass
class RunRecord:
    config_hash: str
    epochs: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def final_test_acc(self) -> float:
        return self.epochs[-1].test_acc if self.epochs else float("nan")

    @property
    def best_test_acc(self) -> float:
        return max((e.test_acc for e in self.epochs), default=float("nan"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "train_acc", "test_acc"])
        for e in self.epochs:
            writer.writerow([e.epoch, f"{e.train_loss:.8f}", f"{e.train_acc:.6f}", f"{e.test_acc:.6f}"])
        return buf.getvalue()


def nesterov_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                  lr: float, momentum: float, weight_decay: float = 0.0,
                  nesterov: bool = True):
    """One update; returns (new_param, new_velocity) without mutating inputs."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, velocity {velocity.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise NumericalFailure(
            f"non-finite gradient (|g|max={np.abs(grad[np.isfinite(grad)]).max(initial=0):.3e}, "
            f"{int((~np.isfinite(grad)).sum())} bad entries)"
        )
    dt = param.dtype.type
    lr, momentum, weight_decay = dt(lr), dt(momentum), dt(weight_decay)
    g = grad + weight_decay * param
    v = momentum * velocity - lr * g
    if nesterov:
        new_param = param + momentum * v - lr * g
    else:
        new_param = param + v
    return new_param, v


class SGD:
    """Velocity bookkeeping around :func:`nesterov_step`."""

    def __init__(self, store, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.velocities = {name: np.zeros(p.value.shape, dtype=store.dtype)
                           for name, p in store.trainable_items()}

    def step(self, lr: float) -> None:
        for name, p in self.store.trainable_items():
            try:
                new_value, self.velocities[name] = nesterov_step(
                    p.value.data, p.grad, self.velocities[name],
                    lr, self.cfg.momentum, self.cfg.weight_decay, self.cfg.nesterov)
            except NumericalFailure as err:
                raise NumericalFailure(f"parameter {name!r}: {err}") from None
            self.store.set_value(name, new_value)


def evaluate(model, data: DatasetHandle, batch_size: int = 256) -> float:
    """Top-1 accuracy with eval-mode BN; argmax ties break to the lowest index."""
    correct = 0
    for start in range(0, len(data), batch_size):
        images = data.images[start:start + batch_size]
        labels = data.labels[start:start + batch_size]
        logits, _ = model.forward(images, training=False)
        pred = np.argmax(logits.data, axis=1)
        correct += int((pred == labels).sum())
    return correct / len(data)


def fit(model, train_data: DatasetHandle, test_data: DatasetHandle | None,
        cfg: TrainConfig, out_dir=None, resume_from=None, stop_after=None) -> RunRecord:
    """Run the full schedule; returns the record and writes checkpoints/CSV.

    ``stop_after`` interrupts training after that many epochs while keeping
    the configured schedule (an interrupted run, not a shorter one);
    ``resume_from`` restores parameters, optimizer velocities, the epoch
    counter, the best test accuracy and the epoch history from a checkpoint
    written with the same seed. The resumed run's artifacts are
    byte-identical to the uninterrupted run's.
    """
    if train_data.num_classes != model.cfg.num_classes:
        raise ValueError(
            f"dataset has {train_data.num_classes} classes but the model expects "
            f"{model.cfg.num_classes}"
        )
    optimizer = SGD(model.store, cfg)
    record = RunRecord(config_hash=cfg.hash())
    start_epoch, best_acc = 0, -1.0
    if resume_from is not None:
        state = load_training_state(resume_from, model)
        if state["seed"] != cfg.seed:
            raise ValueError(f"checkpoint {resume_from} was written with seed {state['seed']}, "
                             f"but this run uses seed {cfg.seed}")
        optimizer.velocities.update(state["velocities"])
        start_epoch = state["epoch"] + 1
        best_acc = state["best_acc"]
        record.epochs = [EpochStats(int(row[0]), *map(float, row[1:]))
                         for row in state["history"]]
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    last_epoch = cfg.epochs if stop_after is None else min(cfg.epochs, stop_after)
    t0 = time.perf_counter()
    for epoch in range(start_epoch, last_epoch):
        lr = cfg.lr_at(epoch)
        losses = []
        correct = total = 0
        for images, labels in iter_batches(train_data, cfg.batch_size, cfg.seed, epoch,
                                           augment=cfg.augment):
            loss, logits, tape = model.loss(images, labels, training=True)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise NumericalFailure(
                    f"loss became non-finite at epoch {epoch}; last good checkpoint "
                    f"{'retained in ' + str(out_dir) if out_dir else 'unavailable (no out_dir)'}"
                )
            model.store.zero_grads()
            tape.backward(loss)
            tape.commit_updates()
            optimizer.step(lr)
            losses.append(loss_value)
            pred = np.argmax(logits.data, axis=1)
            correct += int((pred == labels).sum())
            total += len(labels)
            del loss, logits, tape  # free this step's graph before the next forward
        test_acc = evaluate(model, test_data) if test_data is not None else float("nan")
        record.epochs.append(EpochStats(epoch, float(np.mean(losses)), correct / total, test_acc))
        improved = test_data is not None and test_acc > best_acc
        if improved:
            best_acc = test_acc
        if out_dir is not None:
            history = [(e.epoch, e.train_loss, e.train_acc, e.test_acc) for e in record.epochs]
            for name in ["ckpt-final.bin"] + ["ckpt-best.bin"] * improved:
                save_training_state(out_dir / name, model, optimizer.velocities,
                                    epoch, cfg.seed, best_acc, history)
            (out_dir / "curves.csv").write_text(record.to_csv())
    record.wall_time = time.perf_counter() - t0
    return record


def aggregate_runs(finals: list) -> tuple:
    """Mean and standard deviation over per-seed final accuracies."""
    arr = np.asarray(finals, dtype=np.float64)
    return float(arr.mean()), float(arr.std())
