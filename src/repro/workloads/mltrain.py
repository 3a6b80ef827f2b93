"""Deep-learning-pipeline metadata workload (FalconFS-style).

Training jobs hammer file-system *metadata* in a very different shape
from the Spotify trace: each epoch shuffles a dataset of many small
files and reads them all back-to-back (a small-file read storm over a
flat directory — the pattern FalconFS reports at million-entry
scale), then checkpoints by creating a burst of files in one flat
output directory.  This stresses the trie cache and consistent-hash
partitioning with deep re-reads of a single hot subtree instead of
uniform traffic.

:class:`MLTrainWorkload` drives that loop deterministically: a seeded
shuffle per epoch, the file list sharded round-robin across clients
(DataLoader workers), an optional ``stat`` before each read (the
open-file double touch), and a per-epoch checkpoint phase of
flat-directory creates.  Epochs are barriers — all shards finish
reading before the checkpoint storm starts, like a synchronous
training step boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.namespace.treegen import GeneratedTree, flat_directory
from repro.sim import AllOf, Environment


@dataclass(frozen=True)
class MLTrainConfig:
    epochs: int = 2
    dataset_files: int = 256
    """Small files in the flat dataset directory."""
    checkpoint_files: int = 32
    """Files created in the flat checkpoint directory per epoch."""
    stat_before_read: bool = True
    """Touch each file with a ``stat`` before reading (open + read)."""
    root: str = "/mltrain"
    seed: int = 0


@dataclass
class MLTrainResult:
    epochs: int = 0
    reads: int = 0
    stats: int = 0
    creates: int = 0
    failed: int = 0
    duration_ms: float = 0.0

    @property
    def total_ops(self) -> int:
        return self.reads + self.stats + self.creates


class MLTrainWorkload:
    """Shuffle-epoch read storms plus checkpoint create bursts."""

    def __init__(self, env: Environment, config: MLTrainConfig) -> None:
        self.env = env
        self.config = config
        self.dataset: GeneratedTree = flat_directory(
            f"{config.root}/dataset", config.dataset_files
        )
        self.result = MLTrainResult()

    def namespace(self) -> GeneratedTree:
        """Paths to pre-install: the dataset plus checkpoint dirs."""
        tree = GeneratedTree()
        tree.directories.append(self.config.root)
        tree.directories.extend(self.dataset.directories)
        tree.files.extend(self.dataset.files)
        for epoch in range(self.config.epochs):
            tree.directories.append(f"{self.config.root}/ckpt_e{epoch}")
        return tree

    # -- execution -----------------------------------------------------
    def run(self, clients: Sequence) -> Generator:
        """Drive ``clients`` through every epoch; returns the result."""
        start = self.env.now
        rng = random.Random(f"{self.config.seed}:mltrain:shuffle")
        for epoch in range(self.config.epochs):
            order = list(self.dataset.files)
            rng.shuffle(order)
            shards: List[List[str]] = [[] for _ in clients]
            for index, path in enumerate(order):
                shards[index % len(clients)].append(path)
            # Read storm: every shard in parallel, epoch barrier after.
            yield AllOf(self.env, [
                self.env.process(self._read_shard(client, shard))
                for client, shard in zip(clients, shards)
            ])
            # Checkpoint: a flat-directory create burst.
            yield AllOf(self.env, [
                self.env.process(
                    self._checkpoint(client, epoch, index, len(clients))
                )
                for index, client in enumerate(clients)
            ])
            self.result.epochs += 1
        self.result.duration_ms = self.env.now - start
        return self.result

    def _read_shard(self, client, shard: Sequence[str]) -> Generator:
        for path in shard:
            if self.config.stat_before_read:
                response = yield from client.stat(path)
                self.result.stats += 1
                if not response.ok:
                    self.result.failed += 1
            response = yield from client.read_file(path)
            self.result.reads += 1
            if not response.ok:
                self.result.failed += 1

    def _checkpoint(
        self, client, epoch: int, index: int, total: int
    ) -> Generator:
        directory = f"{self.config.root}/ckpt_e{epoch}"
        count = self.config.checkpoint_files // total + (
            1 if index < self.config.checkpoint_files % total else 0
        )
        for serial in range(count):
            response = yield from client.create_file(
                f"{directory}/shard{index}_{serial}"
            )
            self.result.creates += 1
            if not response.ok:
                self.result.failed += 1
