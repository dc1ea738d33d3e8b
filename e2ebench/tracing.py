"""Per-layer timing for the traced run, from the benchmark's own files.

The tracer wraps the public entry points of each serving layer (no change
to ``src/``) and aggregates, per layer, the number of calls, the time spent
in them and a count of the work they did (frames, rows, bytes).  A layer
that calls itself (``PoseServer.enqueue`` flushing a full batch) is timed
at its outermost call only.

Shard workers are forked, so wrappers installed before a
:class:`ProcessShardedPoseServer` is built run inside its workers too.
Each worker starts from empty aggregates and writes them, with its CPU
time, to a file in the trace directory when it shuts down;
:meth:`Tracer.collect_workers` adds them in.
"""

from __future__ import annotations

import asyncio
import functools
import glob
import json
import math
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "transport.encode_us_per_frame": "us",
    "transport.decode_us_per_frame": "us",
    "transport.bytes_per_frame": "B",
    "frontend.overhead_ms": "ms",
    "sharded.call_ms": "ms",
    "worker.hop_ms": "ms",
    "worker.cpu_ms_per_frame": "ms",
    "server.flush_ms": "ms",
    "batcher.batch_size": "frames",
    "batcher.queue_wait_ms": "ms",
    "session.observe_us_per_frame": "us",
    "features.build_us_per_frame": "us",
    "kernel.predict_us_per_frame": "us",
    "kernel.useful_row_ratio": "ratio",
    "adapters.adapt_ms_per_user": "ms",
    "adapters.gather_ms": "ms",
    "adapters.warm_hits": "count",
    "adapters.gather_cache_hit_rate": "ratio",
    "dataset.generate_s": "s",
    "core.train_s": "s",
    "sharded.start_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Aggregates ``[calls, seconds, work]`` per layer name."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.worker_cpu_s = 0.0
        self.workers = 0
        self.trace_dir: Optional[str] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List = []
        # queue-wait bookkeeping of PoseServer.enqueue -> resolving flush
        self._waiting: List = []
        self._last_flush_start = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, name: str, seconds: float, work: float = 0.0) -> None:
        with self._lock:
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += seconds
            entry[2] += work

    def reset(self) -> None:
        self.stats.clear()
        self._waiting = []

    def _enter(self, group: str) -> bool:
        depth = getattr(self._local, group, 0)
        setattr(self._local, group, depth + 1)
        return depth == 0

    def _leave(self, group: str) -> None:
        setattr(self._local, group, getattr(self._local, group) - 1)

    def wrap(
        self,
        owner,
        attr: str,
        record: Callable,
        group: Optional[str] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``record(tracer, seconds, args, kwargs, result)`` turns one
        outermost call of ``group`` (default: ``owner.attr`` itself) into
        :meth:`add` calls.
        """
        original = getattr(owner, attr)
        group = group or f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        if asyncio.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = await original(*args, **kwargs)
                record(tracer, time.perf_counter() - start, args, kwargs, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                outermost = tracer._enter(group)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._leave(group)
                if outermost:
                    record(tracer, time.perf_counter() - start, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------
    def install_setup_layers(self) -> None:
        """Data generation, training and shard start-up (``setup_s``)."""
        import repro.dataset
        from repro.core import FusePoseEstimator
        from repro.serve import PoseFrontend, ProcessShardedPoseServer

        def timed(name):
            return lambda t, s, a, k, r: t.add(name, s)

        # the benchmark calls repro.dataset.generate_dataset at call time
        self.wrap(repro.dataset, "generate_dataset", timed("dataset.generate"))
        self.wrap(FusePoseEstimator, "fit_supervised", timed("core.train"))
        self.wrap(FusePoseEstimator, "fit_meta", timed("core.train"))
        self.wrap(ProcessShardedPoseServer, "__init__", timed("sharded.init"))
        self.wrap(PoseFrontend, "start", timed("frontend.start"))

    def install_serving_layers(self, trace_dir: str) -> None:
        """Every layer a served frame crosses; call before building servers."""
        import repro.serve.frontend as frontend
        import repro.serve.transport as transport
        import repro.serve.worker as worker
        from repro.dataset.features import FeatureMapBuilder
        from repro.serve import (
            AdapterRegistry,
            PoseServer,
            ProcessShardedPoseServer,
            SharedParameterKernel,
            UserSession,
        )

        self.trace_dir = trace_dir
        tracer = self

        # transport: both ends of the wire run in this process
        def encoded(t, s, a, k, r):
            t.add("transport.encode", s, len(r))

        original_encode = transport.encode_message
        self.wrap(transport, "encode_message", encoded)
        frontend.encode_message = transport.encode_message
        self._patches.append((frontend, "encode_message", original_encode))
        self.wrap(
            transport,
            "decode_payload",
            lambda t, s, a, k, r: t.add("transport.decode", s, len(a[0])),
        )

        # backend calls made by the front-end's executor threads
        def on_frontend_thread() -> bool:
            return threading.current_thread().name.startswith("fuse-frontend")

        def sharded_call(t, s, a, k, r):
            t.add("sharded.call", s)
            if on_frontend_thread():
                t.add("frontend.backend", s)

        for method in ("submit", "enqueue", "enqueue_many", "poll", "flush"):
            self.wrap(ProcessShardedPoseServer, method, sharded_call, group="sharded")

        def server_call(t, s, a, k, r):
            t.add("server.call", s)
            if on_frontend_thread():
                t.add("frontend.backend", s)

        for method in ("submit", "enqueue_many", "poll"):
            self.wrap(PoseServer, method, server_call, group="server")

        # PoseServer.enqueue and .flush also feed the batcher's queue-wait
        # bookkeeping, on nested calls too (enqueue_many -> enqueue)
        original_enqueue = PoseServer.enqueue

        @functools.wraps(original_enqueue)
        def enqueue(server, *args, **kwargs):
            outermost = tracer._enter("server")
            start = time.perf_counter()
            try:
                handle = original_enqueue(server, *args, **kwargs)
            finally:
                tracer._leave("server")
            if outermost:
                server_call(tracer, time.perf_counter() - start, None, None, None)
            tracer._track_wait(handle, start)
            return handle

        original_flush = PoseServer.flush

        @functools.wraps(original_flush)
        def flush(server, *args, **kwargs):
            outermost = tracer._enter("server")
            start = time.perf_counter()
            tracer._last_flush_start = start
            try:
                produced = original_flush(server, *args, **kwargs)
            finally:
                tracer._leave("server")
            seconds = time.perf_counter() - start
            if outermost:
                server_call(tracer, seconds, None, None, None)
            if produced:
                tracer.add("server.flush", seconds, produced)
                tracer._settle_waits()
            return produced

        for name, patched, original in (
            ("enqueue", enqueue, original_enqueue),
            ("flush", flush, original_flush),
        ):
            setattr(PoseServer, name, patched)
            self._patches.append((PoseServer, name, original))

        self.wrap(UserSession, "observe", lambda t, s, a, k, r: t.add("session.observe", s, 1))
        self.wrap(
            FeatureMapBuilder,
            "build_batch",
            lambda t, s, a, k, r: t.add("features.build", s, len(r)),
        )

        def predicted(t, s, a, k, r):
            kernel, rows = a[0], len(r)
            t.add("kernel.predict", s, rows)
            t.add("kernel.padded_rows", 0.0, math.ceil(rows / kernel.block) * kernel.block)

        self.wrap(SharedParameterKernel, "predict", predicted, group="kernel")
        self.wrap(SharedParameterKernel, "predict_lowrank", predicted, group="kernel")
        self.wrap(
            AdapterRegistry,
            "adapt_many",
            lambda t, s, a, k, r: t.add("adapters.adapt", s, len(r)),
        )
        self.wrap(AdapterRegistry, "gather", lambda t, s, a, k, r: t.add("adapters.gather", s))

        # shard workers: start from empty aggregates, dump them on shutdown
        original_main = worker.shard_worker_main

        @functools.wraps(original_main)
        def worker_main(*args, **kwargs):
            tracer._lock = threading.Lock()
            tracer.reset()
            cpu = time.process_time()
            try:
                return original_main(*args, **kwargs)
            finally:
                path = os.path.join(tracer.trace_dir, f"worker-{os.getpid()}.json")
                with open(path, "w") as handle:
                    json.dump(
                        {"stats": dict(tracer.stats), "cpu_s": time.process_time() - cpu},
                        handle,
                    )

        worker.shard_worker_main = worker_main
        self._patches.append((worker, "shard_worker_main", original_main))

    def _track_wait(self, handle, enqueued_at: float) -> None:
        if handle.done:  # resolved by a flush inside this very enqueue
            self.add("batcher.queue_wait", max(self._last_flush_start - enqueued_at, 0.0), 1)
        else:
            self._waiting.append((handle, enqueued_at))

    def _settle_waits(self) -> None:
        waiting = []
        for handle, enqueued_at in self._waiting:
            if handle.done:
                self.add("batcher.queue_wait", max(self._last_flush_start - enqueued_at, 0.0), 1)
            elif not handle.dropped:
                waiting.append((handle, enqueued_at))
        self._waiting = waiting

    def collect_workers(self) -> None:
        """Add the aggregates the shard workers wrote on shutdown."""
        for path in sorted(glob.glob(os.path.join(self.trace_dir or "", "worker-*.json"))):
            with open(path) as handle:
                dumped = json.load(handle)
            for name, (calls, seconds, work) in dumped["stats"].items():
                entry = self.stats[name]
                entry[0] += calls
                entry[1] += seconds
                entry[2] += work
            self.worker_cpu_s += dumped["cpu_s"]
            self.workers += 1
            os.unlink(path)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def per_layer(
        self,
        served_frames: int,
        request_latencies_s: List[float],
        setups: int,
        server_builds: int,
        snapshot: Dict[str, float],
        overhead_pct: float,
    ) -> Dict[str, float]:
        """The per-layer metrics; 0 for a layer that did no work."""

        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def seconds(name):
            return self.stats.get(name, (0, 0.0, 0.0))[1]

        def work(name):
            return self.stats.get(name, (0, 0.0, 0.0))[2]

        def ratio(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        worker_frames = work("server.flush") if self.workers else 0.0
        sharded_calls = calls("sharded.call")
        overhead = 0.0
        if calls("frontend.backend"):
            overhead = ratio(
                sum(request_latencies_s) - seconds("frontend.backend"),
                len(request_latencies_s),
                1e3,
            )
        return {
            "transport.encode_us_per_frame": ratio(
                seconds("transport.encode"), served_frames, 1e6
            ),
            "transport.decode_us_per_frame": ratio(
                seconds("transport.decode"), served_frames, 1e6
            ),
            "transport.bytes_per_frame": ratio(work("transport.encode"), served_frames),
            "frontend.overhead_ms": overhead,
            "sharded.call_ms": ratio(seconds("sharded.call"), sharded_calls, 1e3),
            "worker.hop_ms": ratio(
                seconds("sharded.call") - seconds("server.call"), sharded_calls, 1e3
            )
            if self.workers
            else 0.0,
            "worker.cpu_ms_per_frame": ratio(self.worker_cpu_s, worker_frames, 1e3),
            "server.flush_ms": ratio(seconds("server.flush"), calls("server.flush"), 1e3),
            "batcher.batch_size": ratio(work("server.flush"), calls("server.flush")),
            "batcher.queue_wait_ms": ratio(
                seconds("batcher.queue_wait"), calls("batcher.queue_wait"), 1e3
            ),
            "session.observe_us_per_frame": ratio(
                seconds("session.observe"), work("session.observe"), 1e6
            ),
            "features.build_us_per_frame": ratio(
                seconds("features.build"), work("features.build"), 1e6
            ),
            "kernel.predict_us_per_frame": ratio(
                seconds("kernel.predict"), work("kernel.predict"), 1e6
            ),
            "kernel.useful_row_ratio": ratio(work("kernel.predict"), work("kernel.padded_rows")),
            "adapters.adapt_ms_per_user": ratio(
                seconds("adapters.adapt"), work("adapters.adapt"), 1e3
            ),
            "adapters.gather_ms": ratio(seconds("adapters.gather"), calls("adapters.gather"), 1e3),
            "adapters.warm_hits": float(snapshot.get("adapter_warm_hits", 0.0)),
            "adapters.gather_cache_hit_rate": float(snapshot.get("param_cache_hit_rate", 0.0)),
            "dataset.generate_s": ratio(seconds("dataset.generate"), setups),
            "core.train_s": ratio(seconds("core.train"), setups),
            "sharded.start_s": ratio(
                seconds("sharded.init") + seconds("frontend.start"), server_builds
            )
            if calls("sharded.init")
            else 0.0,
            "trace.overhead_pct": overhead_pct,
        }
