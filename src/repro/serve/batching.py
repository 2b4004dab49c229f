"""Micro-batching scoring core: coalesce concurrent point queries.

The HTTP layer is thread-per-connection, so a burst of single-record
``/score`` requests lands as many concurrent ``score_record`` calls — each
paying the full per-call overhead of featurizing, predicting, and
monitoring one row. :class:`MicroBatcher` replaces that with a bounded
request queue and one dispatcher thread that coalesces whatever requests
are waiting (up to ``max_batch``, waiting at most ``max_wait_ms`` for
stragglers) into a single vectorized
:meth:`~repro.serve.scoring.ScoringEngine.score_records` call. Each request
carries a :class:`concurrent.futures.Future`; handler threads block on
their own future and get either the same response dict ``score_record``
would have produced or a typed error.

Failure semantics:

* a full queue raises :class:`ServiceOverloaded` at submit time (the HTTP
  layer maps it to 503), so saturation produces fast, explicit rejections
  instead of unbounded latency;
* a record the pipeline's handler drops (complete-case analysis) gets the
  same :class:`ValueError` the single-record path raises;
* if the coalesced batch itself fails to score, it falls back to
  per-record ``score_record`` calls so each request receives its *own*
  typed error — one malformed record cannot poison its batch-mates;
* :meth:`MicroBatcher.close` has a drain contract: new submissions are
  rejected with :class:`BatcherClosed`, already-queued requests flush
  through final dispatch passes, and anything still queued when the drain
  deadline expires resolves with :class:`BatcherClosed` instead of
  blocking its caller forever.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional

from ..telemetry.metrics import SIZE_BOUNDS, Histogram
from .scoring import ScoringEngine

BATCH_SIZE = "serve.batch_size"
QUEUE_DEPTH = "serve.batch_queue_depth"


class ServiceOverloaded(RuntimeError):
    """The request queue is full; the caller should shed load (HTTP 503)."""


class BatcherClosed(RuntimeError):
    """The batcher is shut down; the request was rejected, not scored.

    Raised at submit time once :meth:`MicroBatcher.close` has run, and set
    on any future whose request was still queued when the drain deadline
    expired — a typed signal (the HTTP layer maps it to 503 + connection
    close) that the caller should retry against another worker.
    """


def batching_stats(state: Dict[str, Any]) -> Dict[str, float]:
    """The ``/metrics`` ``batching`` block of a registry state holding one
    or more batchers' instruments (see :meth:`MicroBatcher.state`)."""
    sizes = state["histograms"][BATCH_SIZE]
    dispatched = sizes["count"]
    return {
        "batches_dispatched": float(dispatched),
        "records_batched": float(sizes["sum"]),
        "mean_batch_size": sizes["sum"] / dispatched if dispatched else 0.0,
        "queue_depth": float(state["gauges"].get(QUEUE_DEPTH, 0.0)),
    }


class _Request:
    __slots__ = ("record", "future")

    def __init__(self, record: Dict[str, Any]):
        self.record = record
        self.future: Future = Future()


class MicroBatcher:
    """Bounded queue + dispatcher thread feeding one scoring engine."""

    def __init__(
        self,
        engine: ScoringEngine,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.max_queue = int(max_queue)
        self._queue: List[_Request] = []  # guarded-by: _cond
        self._cond = threading.Condition()
        self._closed = False  # guarded-by: _cond
        self._batch_sizes = Histogram(SIZE_BOUNDS)
        self._thread = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, record: Dict[str, Any]) -> Future:
        """Enqueue one record; the future resolves to a response dict."""
        request = _Request(record)
        with self._cond:
            if self._closed:
                raise BatcherClosed("MicroBatcher is closed")
            if len(self._queue) >= self.max_queue:
                raise ServiceOverloaded(
                    f"scoring queue full ({self.max_queue} pending requests)"
                )
            self._queue.append(request)
            self._cond.notify()
        return request.future

    def score(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Submit and wait: the blocking call handler threads use."""
        return self.submit(record).result()

    def state(self) -> Dict[str, Any]:
        """This batcher's instruments as a registry state: the batch-size
        histogram and the queue depth at the moment of the call."""
        with self._cond:
            depth = len(self._queue)
        return {
            "counters": {},
            "gauges": {QUEUE_DEPTH: float(depth)},
            "histograms": {BATCH_SIZE: self._batch_sizes.state()},
        }

    def stats(self) -> Dict[str, float]:
        return batching_stats(self.state())

    def close(self, timeout: float = 10.0) -> None:
        """Stop the dispatcher; drain, then fail anything left with a type.

        The contract, in order:

        1. new submissions are rejected with :class:`BatcherClosed` from
           the moment close() takes the lock;
        2. requests already queued are flushed through the dispatcher's
           final dispatch passes and resolve normally;
        3. if the dispatcher cannot finish within ``timeout`` (a wedged
           scoring engine), every request still queued has its future
           resolved with :class:`BatcherClosed` — no caller is left
           blocking on a future nobody will ever complete. Requests the
           dispatcher already took off the queue stay owned by it and
           resolve with the engine's eventual result or error.

        Idempotent; later calls re-run only the leftover-failing step.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout)
        self._fail_pending()

    def _fail_pending(self) -> None:
        with self._cond:
            leftover = self._queue[:]
            del self._queue[:]
        for request in leftover:
            request.future.set_exception(
                BatcherClosed(
                    "MicroBatcher closed before this request was dispatched"
                )
            )

    # ------------------------------------------------------------------
    # dispatcher side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._dispatch(batch)

    def _collect(self) -> Optional[List[_Request]]:
        """Block for the first request, then coalesce whatever is queued.

        Returns ``None`` only when closed and drained. The policy is
        work-conserving: everything already queued (up to ``max_batch``)
        dispatches immediately — under sustained load requests pile up
        *during* the previous scoring pass, so batches form naturally with
        zero added latency. Only a lone request waits, at most
        ``max_wait``, for a first batch-mate; the moment one arrives the
        queue is drained again and the batch dispatches.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            batch = self._take(self.max_batch)
            if len(batch) > 1 or self.max_wait <= 0:
                return batch
            deadline = time.monotonic() + self.max_wait
            while not self._queue and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return batch
                self._cond.wait(remaining)
            batch.extend(self._take(self.max_batch - len(batch)))
            return batch

    def _take(self, limit: int) -> List[_Request]:  # guarded-by: _cond
        taken = self._queue[:limit]
        del self._queue[:limit]
        return taken

    def _dispatch(self, batch: List[_Request]) -> None:
        self._batch_sizes.observe(len(batch))
        if len(batch) == 1:
            self._score_individually(batch)
            return
        try:
            results = self.engine.score_records([r.record for r in batch])
        except Exception:
            # frame-level failure: re-score one by one so every request
            # gets its own typed error instead of a shared frame error
            self._score_individually(batch)
            return
        for request, result in zip(batch, results):
            if isinstance(result, Exception):
                request.future.set_exception(result)
            else:
                request.future.set_result(result)

    def _score_individually(self, batch: List[_Request]) -> None:
        for request in batch:
            try:
                request.future.set_result(self.engine.score_record(request.record))
            except Exception as error:
                request.future.set_exception(error)
