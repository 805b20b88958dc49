"""The cluster data plane: pickled request/reply frames over each worker's pipe.

The dispatcher/worker protocol is a request frame ``(header, arrays)`` down
and a reply ``("ok", scalar, arrays, spans)`` or ``("error", kind, message)``
back.  Both travel the worker's duplex ``multiprocessing`` pipe as one
pickled blob each: :class:`ParentPipe` is the dispatcher's end,
:class:`WorkerPipe` the worker's.  A packed batch at serving scale
(D=4000, 64 rows) is ~43 KB of query words plus the reply scores, so the
pickle + pipe copy is a small, flat share of a dispatch.

Crash semantics come straight from the pipe: a dead peer raises
``BrokenPipeError``/``OSError``/``EOFError``, and the dispatcher's poll loops
also watch process liveness, so mid-batch worker death always surfaces as
:class:`~repro.cluster.errors.WorkerCrashedError` + lazy respawn.

:class:`ParentPipe` keeps exact byte accounting (``pipe_bytes``,
``payload_bytes`` and frame counts), which ``/v1/metrics`` and the
Prometheus exposition read.
"""

from __future__ import annotations

import pickle
from typing import Dict, Sequence

import numpy as np

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)


def _payload_nbytes(arrays: Sequence[np.ndarray]) -> int:
    return sum(int(array.nbytes) for array in arrays)


class ParentPipe:
    """The dispatcher's end of one worker pipe, with byte/frame counters.

    Single-threaded use: the dispatcher serialises dispatches under its own
    lock.
    """

    #: Counter names, in :meth:`stats` order.
    COUNTERS = ("frames_sent", "frames_received", "pipe_bytes", "payload_bytes")

    def __init__(self, connection):
        self.connection = connection
        self.frames_sent = 0
        self.frames_received = 0
        self.pipe_bytes = 0  # frame bytes that crossed the pipe (pickles)
        self.payload_bytes = 0  # array bytes carried inside those frames

    def send_request(self, header: dict, arrays: Sequence[np.ndarray]) -> None:
        blob = _dumps((header, list(arrays)))
        self.connection.send_bytes(blob)
        self.frames_sent += 1
        self.pipe_bytes += len(blob)
        self.payload_bytes += _payload_nbytes(arrays)

    def poll(self, timeout: float) -> bool:
        return self.connection.poll(timeout)

    def recv_reply(self) -> tuple:
        blob = self.connection.recv_bytes()
        self.frames_received += 1
        self.pipe_bytes += len(blob)
        reply = pickle.loads(blob)
        if reply[0] == "ok":
            self.payload_bytes += _payload_nbytes(reply[2])
        return reply

    def close(self) -> None:
        self.connection.close()

    def stats(self) -> Dict[str, int]:
        return {name: int(getattr(self, name)) for name in self.COUNTERS}


class WorkerPipe:
    """The worker's end: blocking :meth:`recv` + :meth:`send_ok`/:meth:`send_error`."""

    def __init__(self, connection):
        self.connection = connection

    def recv(self):
        """Next ``(header, arrays)`` request; raises ``EOFError`` on close."""
        header, arrays = pickle.loads(self.connection.recv_bytes())
        return header, arrays

    def send_ok(self, scalar, arrays: Sequence[np.ndarray], spans: list) -> None:
        self.connection.send_bytes(_dumps(("ok", scalar, list(arrays), spans)))

    def send_error(self, kind: str, message: str) -> None:
        self.connection.send_bytes(_dumps(("error", kind, message)))

    def close(self) -> None:
        self.connection.close()


__all__ = ["ParentPipe", "WorkerPipe"]
