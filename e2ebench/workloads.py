"""The benchmark's three workloads, driven through the serving stack's public API.

Every workload is a closed loop generated from this one process:

* ``pipelined_submit`` — two connections to a :class:`PoseFrontend` over a
  2-shard :class:`ProcessShardedPoseServer`, each keeping a fixed window of
  strict per-frame ``AsyncPoseClient.submit`` calls in flight;
* ``batched_submit`` — two connections to a :class:`PoseFrontend` over one
  in-process :class:`PoseServer`, each sending ``submit_batch`` wire frames
  that carry one frame for each of its users;
* ``onboard_serve`` — an in-process :class:`PoseServer` over a meta-trained
  base model with low-rank adapters, onboarding unseen users in waves with
  ``adapt_users`` while every user keeps streaming through
  ``enqueue`` + ``poll``.

A run repeats whole *rounds*: in one round every user streams its whole
stream once, so every run attempts the same operations in the same
proportions.  Each workload logs, per user, the stream positions it sent,
and hands every round's replies, in arrival order, to the auditor.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from oracle import Auditor, Oracle, Reply

WORKLOADS = ("pipelined_submit", "batched_submit", "onboard_serve")

#: the MARS-like subjects the base models are trained on
TRAIN_SUBJECTS = (1, 2, 3, 4)
MOVEMENTS = ("squat", "right_limb_extension", "left_front_lunge", "both_upper_limb_extension")
FRAME_RATE_HZ = 10.0
#: a round that takes longer than this has lost a reply
ROUND_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sizes:
    """Input make-up of one workload (see the README for the defaults)."""

    users: int
    frames_per_user: int
    train_seconds: float = 4.0
    train_epochs: int = 4
    meta_iterations: int = 10
    warmstart_epochs: int = 4
    meta_lr: float = 1e-5
    setup_repeats: int = 3
    connections: int = 2
    window: int = 8
    calibration_frames: int = 16
    adapted_users: int = 0
    waves: int = 4
    hot_capacity: int = 8
    probe_users: int = 8
    probe_repeats: int = 5


FULL = {
    "pipelined_submit": Sizes(users=32, frames_per_user=8),
    "batched_submit": Sizes(users=64, frames_per_user=16),
    "onboard_serve": Sizes(users=32, frames_per_user=16, adapted_users=16),
}

#: toy sizes for the benchmark's own tests: every path runs, in seconds
QUICK = {
    name: replace(
        sizes,
        users=min(sizes.users, 4),
        frames_per_user=4,
        train_seconds=1.0,
        train_epochs=1,
        meta_iterations=2,
        warmstart_epochs=1,
        setup_repeats=1,
        window=3,
        calibration_frames=4,
        adapted_users=min(sizes.adapted_users, 2),
        waves=2,
        hot_capacity=1,
        probe_users=1,
        probe_repeats=1,
    )
    for name, sizes in FULL.items()
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def training_set(seed: int, sizes: Sizes):
    from repro.dataset import SyntheticDatasetConfig, generate_dataset

    return generate_dataset(
        SyntheticDatasetConfig(
            subject_ids=TRAIN_SUBJECTS,
            movement_names=MOVEMENTS,
            seconds_per_pair=sizes.train_seconds,
            seed=seed,
        ),
        use_cache=False,
    )


def user_streams(seed: int, count: int, frames: int, prefix: str = "u") -> Dict[str, list]:
    """``count`` unseen users, each one recording of ``frames`` frames.

    User ``i`` is the body profile synthesized for subject id ``5 + i`` (a
    fixed panel of people the base model never saw) doing movement
    ``i mod 4``; the recordings come from ``seed``.  A fixed panel keeps
    ``mae_cm`` from swinging with which bodies a seed happens to draw.
    """
    from repro.dataset import SyntheticDatasetConfig, generate_dataset

    subjects = [1 + len(TRAIN_SUBJECTS) + i for i in range(count)]
    streams: Dict[str, list] = {}
    for slot, movement in enumerate(MOVEMENTS):
        ids = subjects[slot :: len(MOVEMENTS)]
        if not ids:
            continue
        dataset = generate_dataset(
            SyntheticDatasetConfig(
                subject_ids=tuple(ids),
                movement_names=(movement,),
                seconds_per_pair=frames / FRAME_RATE_HZ,
                seed=seed + 7919 * (slot + 1),
            ),
            use_cache=False,
        )
        by_subject: Dict[int, list] = {}
        for sample in dataset:
            by_subject.setdefault(sample.subject_id, []).append(sample)
        for subject in ids:
            recording = sorted(by_subject[subject], key=lambda s: s.frame_index)
            streams[f"{prefix}{subjects.index(subject):03d}"] = recording[:frames]
    return dict(sorted(streams.items()))


def train_estimator(seed: int, sizes: Sizes, meta: bool):
    """A fresh base model trained on the seeded training set."""
    from repro.core import FuseConfig, FusePoseEstimator
    from repro.core.maml import MetaLearningConfig
    from repro.core.training import TrainingConfig

    config = FuseConfig(
        num_context_frames=1,
        training=TrainingConfig(epochs=sizes.train_epochs, batch_size=32, seed=seed),
        meta=MetaLearningConfig(
            meta_iterations=sizes.meta_iterations,
            warmstart_epochs=sizes.warmstart_epochs,
            warmstart_batch_size=32,
            meta_lr=sizes.meta_lr,
            tasks_per_batch=4,
            support_size=16,
            query_size=16,
            seed=seed,
        ),
        model_seed=seed,
    )
    estimator = FusePoseEstimator(config)
    arrays = estimator.prepare(training_set(seed, sizes))
    if meta:
        estimator.fit_meta(arrays)
    else:
        estimator.fit_supervised(arrays)
    return estimator


def memory_mb() -> float:
    """Proportional resident memory of this process and its children, MB.

    Proportional set size (``Pss``) counts pages shared copy-on-write by
    forked shard workers once, split among the sharers.
    """
    import multiprocessing

    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                total_kb += next(
                    int(line.split()[1]) for line in handle if line.startswith("Pss:")
                )
        except (OSError, StopIteration):
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Measurement records
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """What one timed stretch of rounds served."""

    frames: int = 0
    wall_s: float = 0.0
    rounds: int = 0
    latencies_s: List[float] = field(default_factory=list)
    memory_mb: List[float] = field(default_factory=list)
    adapted_users: int = 0
    adapt_s: float = 0.0
    round_fps: List[float] = field(default_factory=list)

    @property
    def throughput_fps(self) -> float:
        return self.frames / self.wall_s


class Workload:
    """Shared bookkeeping: the send log, failures and the auditor.

    Replies are checked by the :class:`Auditor` after every round, outside
    the timed stretch, and then dropped, so the benchmark's own memory does
    not grow with the number of frames served.
    """

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.estimator = None
        self.streams: Dict[str, list] = {}
        #: the current round's replies, in arrival order
        self.replies: List[Reply] = []
        self.auditor: Optional[Auditor] = None
        #: replies checked so far
        self.served = 0
        #: keep every checked reply in ``log`` (the benchmark's tests)
        self.keep_replies = False
        self.log: List[Reply] = []
        #: (user, epoch) -> stream positions sent, in send order
        self.sent: Dict[Tuple[Hashable, int], List[int]] = {}
        self.failed: List[Tuple[Hashable, int, int, str]] = []
        self.attempted = 0
        #: send -> reply time of every request (warm-up rounds included)
        self.request_latencies: List[float] = []
        self.onboard_rates: List[float] = []
        #: bumped whenever the server's sessions start over
        self.epoch = 0

    # subclasses: prepare(), start(), run_round(segment), stop(), close()
    def _audit_against(self, estimator, streams) -> None:
        self.estimator, self.streams = estimator, streams
        self.auditor = Auditor(Oracle(estimator, streams))

    def verify(self) -> None:
        """Check the round's replies and drop them."""
        self.auditor.observe(self.replies, self.sent, self.failed)
        self.served += len(self.replies)
        if self.keep_replies:
            self.log.extend(self.replies)
        self.replies = []

    def _send(self, user: Hashable, epoch: int, position: int) -> int:
        """Log one frame about to be sent; returns its per-user index."""
        history = self.sent.setdefault((user, epoch), [])
        history.append(position)
        self.attempted += 1
        return len(history) - 1

    def serve(self, seconds: float) -> Segment:
        """One untimed warm-up round, then whole timed rounds for ``seconds``.

        Only the rounds themselves are timed; the checks between them are
        not.
        """
        self.run_round(Segment())
        self.verify()
        segment = Segment()
        while segment.wall_s < seconds:
            frames, start = segment.frames, time.perf_counter()
            self.run_round(segment)
            elapsed = time.perf_counter() - start
            segment.wall_s += elapsed
            segment.round_fps.append((segment.frames - frames) / elapsed)
            segment.rounds += 1
            segment.memory_mb.append(memory_mb())
            self.verify()
        return segment

    def probe_onboarding(self, server) -> None:
        """Time ``adapt_users`` for users that are never served.

        The base-model workloads serve no adapted user; this probe measures
        how fast the same deployment onboards new users, after the timed
        rounds, so ``onboard_users_per_s`` exists on every workload.
        """
        from repro.dataset.sample import PoseDataset

        sizes = self.sizes
        probes = user_streams(self.seed + 1, sizes.probe_users, sizes.calibration_frames, "probe")
        datasets = {user: PoseDataset(frames) for user, frames in probes.items()}
        for _ in range(sizes.probe_repeats):
            start = time.perf_counter()
            server.adapt_users(datasets)
            self.onboard_rates.append(len(datasets) / (time.perf_counter() - start))
            for user in datasets:
                server.forget_user(user)


# ----------------------------------------------------------------------
# Socket workloads
# ----------------------------------------------------------------------
class SocketWorkload(Workload):
    """A :class:`PoseFrontend` on localhost TCP, two client connections."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        super().__init__(seed, sizes, workdir)
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.frontend = None
        self.clients: List = []
        #: each connection's users
        self.cohorts: List[List[str]] = []
        #: replies the clients could not match to a request
        self.unmatched_replies = 0

    def prepare(self) -> None:
        estimator = train_estimator(self.seed, self.sizes, meta=False)
        streams = user_streams(self.seed, self.sizes.users, self.sizes.frames_per_user)
        self._audit_against(estimator, streams)
        users = list(self.streams)
        n = self.sizes.connections
        self.cohorts = [users[i::n] for i in range(n)]

    def build_server(self):
        raise NotImplementedError

    def start(self) -> None:
        from repro.serve import AsyncPoseClient, PoseFrontend

        self.server = self.build_server()
        self.epoch += 1

        async def connect():
            self.frontend = PoseFrontend(self.server, host="127.0.0.1", port=0, max_in_flight=32)
            await self.frontend.start()
            host, port = self.frontend.address[:2]
            for _ in self.cohorts:
                client = AsyncPoseClient()
                await client.connect_tcp(host, port)
                await client.hello()
                self.clients.append(client)

        self.loop.run_until_complete(connect())

    def run_round(self, segment: Segment) -> None:
        # Rounds continue the users' fusion rings: one epoch per server.
        async def round_trip():
            await asyncio.gather(
                *(
                    self.drive_connection(client, cohort, segment)
                    for client, cohort in zip(self.clients, self.cohorts)
                )
            )

        self.loop.run_until_complete(asyncio.wait_for(round_trip(), ROUND_TIMEOUT_S))

    def stop(self) -> None:
        async def disconnect():
            for client in self.clients:
                self.unmatched_replies += client.unmatched_replies
                await client.close()
            self.clients = []
            if self.frontend is not None:
                await self.frontend.stop()
                self.frontend = None

        try:
            self.loop.run_until_complete(disconnect())
        finally:
            server, self.server = self.server, None
            if server is not None and hasattr(server, "close"):
                server.close()

    def close(self) -> None:
        try:
            self.stop()
        finally:
            self.loop.close()


class PipelinedSubmit(SocketWorkload):
    name = "pipelined_submit"

    def build_server(self):
        from repro.serve import ProcessShardedPoseServer, ServeConfig

        # fuse-serve's default scheduling
        config = ServeConfig(max_batch_size=32, max_delay_ms=5.0, max_queue_depth=256)
        return ProcessShardedPoseServer(self.estimator, num_shards=2, config=config)

    async def drive_connection(self, client, users: Sequence[str], segment: Segment) -> None:
        window = asyncio.Semaphore(self.sizes.window)
        tasks = []

        epoch = self.epoch

        async def one(user: str, index: int, position: int) -> None:
            sent_at = time.perf_counter()
            try:
                joints = await client.submit(user, self.streams[user][position].cloud)
            except Exception as error:  # counted, and the run reports it
                self.failed.append((user, epoch, index, repr(error)))
            else:
                latency = time.perf_counter() - sent_at
                self.replies.append(Reply(user, epoch, index, position, False, joints, latency))
                self.request_latencies.append(latency)
                segment.frames += 1
                segment.latencies_s.append(latency)
            finally:
                window.release()

        for position in range(self.sizes.frames_per_user):
            for user in users:
                await window.acquire()
                index = self._send(user, epoch, position)
                tasks.append(asyncio.ensure_future(one(user, index, position)))
        await asyncio.gather(*tasks)


class BatchedSubmit(SocketWorkload):
    name = "batched_submit"

    def build_server(self):
        from repro.serve import PoseServer, ServeConfig

        config = ServeConfig(max_batch_size=32, max_delay_ms=5.0, max_queue_depth=256)
        return PoseServer(self.estimator, config)

    async def drive_connection(self, client, users: Sequence[str], segment: Segment) -> None:
        epoch = self.epoch
        for position in range(self.sizes.frames_per_user):
            indices = [self._send(user, epoch, position) for user in users]
            items = [(user, self.streams[user][position].cloud) for user in users]
            sent_at = time.perf_counter()
            try:
                results = await client.submit_batch(items, return_errors=True)
            except Exception as error:
                results = [error] * len(items)
            latency = time.perf_counter() - sent_at
            self.request_latencies.append(latency)
            segment.latencies_s.append(latency)
            for user, index, value in zip(users, indices, results):
                if isinstance(value, Exception):
                    self.failed.append((user, epoch, index, repr(value)))
                    continue
                self.replies.append(Reply(user, epoch, index, position, False, value, latency))
                segment.frames += 1


# ----------------------------------------------------------------------
# Onboarding beside serving
# ----------------------------------------------------------------------
class OnboardServe(Workload):
    name = "onboard_serve"

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        super().__init__(seed, sizes, workdir)
        self.server = None
        self.spill_dir: Optional[str] = None
        self.calibration: Dict[str, list] = {}
        self.waves: List[List[str]] = []

    def prepare(self) -> None:
        from repro.dataset.sample import PoseDataset

        sizes = self.sizes
        estimator = train_estimator(self.seed, sizes, meta=True)
        recordings = user_streams(
            self.seed, sizes.users, sizes.calibration_frames + sizes.frames_per_user
        )
        users = list(recordings)
        adapted = users[: sizes.adapted_users]
        self.calibration = {u: recordings[u][: sizes.calibration_frames] for u in adapted}
        self.datasets = {u: PoseDataset(list(frames)) for u, frames in self.calibration.items()}
        self._audit_against(
            estimator, {u: recordings[u][sizes.calibration_frames :] for u in users}
        )
        self.waves = [adapted[i :: sizes.waves] for i in range(sizes.waves)]

    def start(self) -> None:
        from repro.serve import AdapterPolicy, PoseServer, ServeConfig

        self.spill_dir = tempfile.mkdtemp(prefix="spill-", dir=self.workdir)
        policy = AdapterPolicy(
            scope="lora", hot_capacity=self.sizes.hot_capacity, spill_dir=self.spill_dir
        )
        config = ServeConfig(max_batch_size=32, max_delay_ms=5.0, max_queue_depth=256)
        self.server = PoseServer(self.estimator, config, policy=policy)

    def run_round(self, segment: Segment) -> None:
        server = self.server
        users = list(self.streams)
        for user in users:
            server.forget_user(user)
        self.epoch += 1
        epoch = self.epoch
        adapted: set = set()
        frames = self.sizes.frames_per_user
        every = max(1, frames // len(self.waves))
        outstanding: List[Tuple] = []

        def settle() -> None:
            now = time.perf_counter()
            keep = []
            for entry in outstanding:
                user, index, position, is_adapted, handle, sent_at = entry
                if handle.dropped:
                    self.failed.append((user, epoch, index, handle.drop_reason or "dropped"))
                elif handle.done:
                    joints = handle.result(flush=False)
                    latency = now - sent_at
                    self.replies.append(
                        Reply(user, epoch, index, position, is_adapted, joints, latency)
                    )
                    self.request_latencies.append(latency)
                    segment.frames += 1
                    segment.latencies_s.append(latency)
                else:
                    keep.append(entry)
            outstanding[:] = keep

        for position in range(frames):
            if position % every == 0 and position // every < len(self.waves):
                wave = self.waves[position // every]
                start = time.perf_counter()
                server.adapt_users({user: self.datasets[user] for user in wave})
                segment.adapt_s += time.perf_counter() - start
                segment.adapted_users += len(wave)
                adapted.update(wave)
                # A frame still pending when its user is adapted is served
                # by the next flush, which routes by registry membership.
                outstanding[:] = [
                    (u, i, p, a or u in adapted, h, t) for u, i, p, a, h, t in outstanding
                ]
            for user in users:
                index = self._send(user, epoch, position)
                sent_at = time.perf_counter()
                try:
                    handle = server.enqueue(user, self.streams[user][position].cloud)
                except Exception as error:
                    self.failed.append((user, epoch, index, repr(error)))
                    continue
                outstanding.append((user, index, position, user in adapted, handle, sent_at))
                settle()
            server.poll()
            settle()
        while server.flush():
            settle()
        settle()

    def verify(self) -> None:
        oracle = self.auditor.oracle
        if not oracle.factors and any(reply.adapted for reply in self.replies):
            # Read once, after the warm-up round: every round re-adapts the
            # same users from the same data, so the factors must repeat.
            registry = self.server.registry
            oracle.factors = {
                user: [np.array(p) for p in registry.parameters_for(user)]
                for user in self.calibration
            }
        super().verify()

    def stop(self) -> None:
        self.server = None
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
            self.spill_dir = None

    def close(self) -> None:
        self.stop()


def make_workload(name: str, seed: int, sizes: Sizes, workdir: str) -> Workload:
    classes = {cls.name: cls for cls in (PipelinedSubmit, BatchedSubmit, OnboardServe)}
    return classes[name](seed, sizes, workdir)
