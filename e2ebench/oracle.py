"""Independent correctness oracle for the benchmark's served predictions.

Nothing here goes through the serving stack.  A served frame is checked
against a plain per-frame pass over the trained estimator: the oracle
rebuilds the frame's causal fusion window from the user's own send
history, concatenates the window's points itself, builds the feature map
and calls :meth:`FusePoseEstimator.predict` (the autograd model, not the
serving kernel).  For a low-rank adapted user the oracle folds the user's
factors into dense weights ``W + B @ A`` itself and predicts through those.

The :class:`Auditor` checks, round by round, that every frame sent was
answered exactly once, in each user's send order, with a prediction within
:data:`TOLERANCE_M` of the oracle, and recomputes the joint error from the
returned predictions and the dataset labels.  :func:`check_adapted_not_worse`
checks that each adapted user's error on its own calibration frames is no
higher than the base model's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: largest allowed |served - oracle| per coordinate, in metres (one micrometre;
#: the serving kernel and the autograd model differ by float rounding only)
TOLERANCE_M = 1e-6


@dataclass
class Reply:
    """One answered frame, in the order the client received it.

    ``epoch`` counts session restarts of the user (a ``forget_user``
    clears the fusion ring), ``index`` is the frame's position in the
    user's send order within that epoch and ``position`` its index into
    the user's stream.  ``adapted`` names whether the user had personal
    parameters when the frame was sent.
    """

    user: Hashable
    epoch: int
    index: int
    position: int
    adapted: bool
    joints: np.ndarray
    latency_s: float


@dataclass
class Oracle:
    """Reference predictions for one workload's users.

    ``streams`` maps each user to its frames (``LabelledFrame``), in the
    order the user streams them; ``factors`` maps adapted users to their
    low-rank factors ``[a0, b0, a1, b1, ...]``.
    """

    estimator: object
    streams: Mapping[Hashable, Sequence]
    factors: Dict[Hashable, List[np.ndarray]] = field(default_factory=dict)
    _cache: Dict[Tuple, np.ndarray] = field(default_factory=dict, repr=False)
    _dense: Dict[Hashable, List[np.ndarray]] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Reference computation
    # ------------------------------------------------------------------
    def window(self, positions: Sequence[int], index: int) -> Tuple[int, ...]:
        """Stream positions fused for the ``index``-th frame sent.

        The causal window of radius ``M`` around the newest frame: past
        offsets clamp to the oldest frame sent, future offsets repeat the
        newest one.
        """
        m = self.estimator.config.num_context_frames
        past = [positions[max(index + offset, 0)] for offset in range(-m, 1)]
        return tuple(past + [positions[index]] * m)

    def dense_parameters(self, user: Hashable) -> List[np.ndarray]:
        """Base weights with the user's rank-r deltas folded in."""
        if user not in self._dense:
            pairs = self.factors[user]
            dense: List[np.ndarray] = []
            layer = 0
            for parameter in self.estimator.model.parameters():
                weight = np.array(parameter.data, dtype=float)
                if weight.ndim >= 2:
                    a, b = pairs[2 * layer], pairs[2 * layer + 1]
                    weight = weight + (b @ a).reshape(weight.shape)
                    layer += 1
                dense.append(weight)
            if 2 * layer != len(pairs):
                raise ValueError(
                    f"user {user!r} has {len(pairs)} factor arrays for {layer} layers"
                )
            self._dense[user] = dense
        return self._dense[user]

    def _features(self, user: Hashable, windows: Sequence[Tuple[int, ...]]) -> np.ndarray:
        from repro.radar.pointcloud import PointCloudFrame

        stream = self.streams[user]
        fused = []
        for window in windows:
            centre = stream[window[len(window) // 2]].cloud
            points = np.concatenate([stream[p].cloud.points for p in window], axis=0)
            fused.append(
                PointCloudFrame(points, timestamp=centre.timestamp, frame_index=centre.frame_index)
            )
        return self.estimator.feature_builder.build_batch(fused)

    def predict(
        self, user: Hashable, windows: Sequence[Tuple[int, ...]], adapted: bool
    ) -> np.ndarray:
        """Oracle joints for each window, shape ``(len(windows), joints, 3)``."""
        missing = [w for w in dict.fromkeys(windows) if (user, w, adapted) not in self._cache]
        if missing:
            features = self._features(user, missing)
            parameters = self.dense_parameters(user) if adapted else None
            joints = self.estimator.predict(features, parameters=parameters)
            for window, row in zip(missing, joints):
                self._cache[(user, window, adapted)] = row
        return np.stack([self._cache[(user, w, adapted)] for w in windows])

    def references(self, replies: Sequence[Reply], sent: Mapping) -> List[np.ndarray]:
        """The oracle joints of every reply, in reply order.

        ``sent`` maps ``(user, epoch)`` to the stream positions sent, in
        send order: the fusion window comes from this log, not from what
        the server answered.
        """
        groups: Dict[Tuple[Hashable, bool], List[int]] = {}
        windows: List[Tuple[int, ...]] = []
        for slot, reply in enumerate(replies):
            windows.append(self.window(sent[(reply.user, reply.epoch)], reply.index))
            groups.setdefault((reply.user, reply.adapted), []).append(slot)
        out: List[Optional[np.ndarray]] = [None] * len(replies)
        for (user, adapted), slots in groups.items():
            joints = self.predict(user, [windows[s] for s in slots], adapted)
            for slot, row in zip(slots, joints):
                out[slot] = row
        return out

    def labels(self, replies: Sequence[Reply]) -> np.ndarray:
        """The dataset's joints for every reply, in reply order."""
        return np.stack([self.streams[r.user][r.position].joints for r in replies])


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Auditor:
    """Checks replies round by round, keeping aggregates instead of replies.

    A workload hands over each round's replies in arrival order with
    :meth:`observe` and calls :meth:`finish` once at the end.  Since a
    user's replies must arrive in send order, "answered exactly once, none
    missing, in order" reduces to: the ``k``-th answer for ``(user, epoch)``
    is frame ``k``, skipping frames reported as failed operations, and the
    last answer is the last frame sent.  Failures are collected, not raised,
    so a run still reports its metrics.
    """

    #: failure messages kept verbatim (the rest are only counted)
    KEPT = 10

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.abs_error_sum = 0.0
        self.coordinates = 0
        self.worst_gap = 0.0
        self.failures: List[str] = []
        self.failure_count = 0
        self._next: Dict[Tuple[Hashable, int], int] = {}

    def fail(self, message: str) -> None:
        self.failure_count += 1
        if len(self.failures) < self.KEPT:
            self.failures.append(message)

    @staticmethod
    def _excused(failed: Sequence[Tuple]) -> Dict[Tuple[Hashable, int], set]:
        excused: Dict[Tuple[Hashable, int], set] = {}
        for user, epoch, index, _ in failed:
            excused.setdefault((user, epoch), set()).add(index)
        return excused

    def _expected(self, key, excused) -> int:
        index = self._next.get(key, 0)
        while index in excused.get(key, ()):
            index += 1
        return index

    def observe(
        self, replies: Sequence[Reply], sent: Mapping, failed: Sequence[Tuple] = ()
    ) -> None:
        """Check one batch of replies against the send log and the oracle.

        ``sent`` maps ``(user, epoch)`` to the stream positions sent, in
        send order; ``failed`` lists ``(user, epoch, index, reason)`` of the
        frames whose operation failed (they expect no answer).
        """
        excused = self._excused(failed)
        known = []
        for reply in replies:
            key = (reply.user, reply.epoch)
            where = f"user {reply.user!r} epoch {reply.epoch}: frame {reply.index}"
            if reply.index >= len(sent.get(key, ())):
                self.fail(f"{where} answered but never sent")
                continue
            known.append(reply)
            expected = self._expected(key, excused)
            if reply.index < expected:
                self.fail(f"{where} answered again or out of order (after frame {expected - 1})")
            elif reply.index > expected:
                self.fail(f"{where} answered while frame {expected} is unanswered")
            self._next[key] = max(self._next.get(key, 0), reply.index + 1)
        if not known:
            return
        references = self.oracle.references(known, sent)
        for reply, expected, label in zip(known, references, self.oracle.labels(known)):
            joints = np.asarray(reply.joints, dtype=float)
            where = f"user {reply.user!r} epoch {reply.epoch}: frame {reply.index}"
            if joints.shape != expected.shape:
                self.fail(f"{where} has shape {joints.shape}, expected {expected.shape}")
                continue
            gap = float(np.abs(joints - expected).max())
            if not gap <= TOLERANCE_M:
                self.fail(
                    f"{where} prediction differs from the oracle by {gap:.3g} m "
                    f"(tolerance {TOLERANCE_M:g} m)"
                )
            self.worst_gap = max(self.worst_gap, gap)
            self.abs_error_sum += float(np.abs(joints - label).sum())
            self.coordinates += joints.size

    def finish(self, sent: Mapping, failed: Sequence[Tuple] = ()) -> None:
        """Every frame sent got its answer (or was reported failed)."""
        excused = self._excused(failed)
        for key, positions in sent.items():
            expected = self._expected(key, excused)
            unanswered = [
                i for i in range(expected, len(positions)) if i not in excused.get(key, ())
            ]
            if unanswered:
                self.fail(
                    f"user {key[0]!r} epoch {key[1]}: {len(unanswered)} frame(s) never "
                    f"answered, from frame {expected} on"
                )

    @property
    def mae_cm(self) -> float:
        """Mean absolute joint error of every answer checked, in cm."""
        return self.abs_error_sum / self.coordinates * 100.0


def calibration_errors(
    oracle: Oracle, user: Hashable, calibration: Sequence
) -> Tuple[float, float]:
    """(base, adapted) mean absolute error in cm on the user's calibration set.

    The features are the ones adaptation trained on (the estimator's
    offline fusion of the calibration frames).
    """
    from repro.dataset.sample import PoseDataset

    arrays = oracle.estimator.to_arrays(PoseDataset(list(calibration)))
    features = arrays.features
    labels = np.asarray(arrays.labels).reshape(len(calibration), -1, 3)
    base = oracle.estimator.predict(features)
    adapted = oracle.estimator.predict(features, parameters=oracle.dense_parameters(user))
    return (
        float(np.abs(base - labels).mean() * 100.0),
        float(np.abs(adapted - labels).mean() * 100.0),
    )


def check_adapted_not_worse(
    oracle: Oracle, calibration: Mapping[Hashable, Sequence]
) -> List[str]:
    """Each adapted user fits its own calibration frames at least as well
    as the base model does; returns the failures."""
    failures = []
    for user, frames in calibration.items():
        base, adapted = calibration_errors(oracle, user, frames)
        if not adapted <= base:
            failures.append(
                f"adapted user {user!r}: calibration error {adapted:.2f} cm is above "
                f"the base model's {base:.2f} cm"
            )
    return failures
