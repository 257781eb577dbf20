"""The serve-loop daemon: poll, drain, checkpoint, stop cleanly.

:class:`ServeLoop` wraps a :class:`~repro.service.service.SchedulerService`
in the long-running shape ``python -m repro serve --follow`` needs:

* each iteration *polls* for new work (the CLI's poll hook submits
  freshly spooled jobs), *drains* whatever the shards can batch, and
  releases any jobs parked by per-shard backpressure (admission cause
  ``"depth"``) now that their shard has capacity again;
* the journal is *checkpointed* on a wall-clock cadence
  (``checkpoint_every``) so a long-lived daemon's write-ahead logs
  compact while it runs, not only at exit;
* ``SIGTERM`` / ``SIGINT`` request a **graceful** stop: the flag is
  checked between drain waves, so the in-flight batch finishes and
  settles, a final checkpoint lands, and :meth:`run` returns the signal
  number — no ``KeyboardInterrupt`` tearing through a half-settled
  batch. The previous handlers are restored on exit.

In follow mode an idle iteration sleeps ``poll_interval`` seconds —
in small slices, so a signal interrupts the nap promptly — and polls
again; without follow, the loop exits once a poll finds nothing and the
queues are empty.

The loop deliberately catches nothing: an
:class:`~repro.faults.crashpoints.InjectedCrash` (or any real error)
propagates to the caller, because crash-injection tests assert the
process dies exactly where the fault was armed.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = ["ServeLoop"]

#: Upper bound on one idle nap slice; the stop flag is rechecked at
#: least this often while sleeping, bounding signal response latency.
_SLEEP_SLICE = 0.1


class ServeLoop:
    """Drive a scheduler service as a polling daemon.

    Parameters
    ----------
    service:
        Anything with ``drain(stop=...)`` and ``release_parked(cause=
        ...)`` — a :class:`~repro.service.service.SchedulerService` in
        production, a stub in tests.
    poll:
        Called once per iteration to ingest new work (the CLI submits
        the spool log's new lines here); returns how many jobs it
        submitted.
        ``None`` polls nothing.
    checkpoint:
        Called on the ``checkpoint_every`` cadence and once after the
        loop ends (the CLI compacts journals and rewrites
        ``state.json`` here). ``None`` skips checkpointing.
    poll_interval:
        Idle sleep between polls in follow mode, seconds.
    checkpoint_every:
        Seconds between periodic checkpoints. ``None`` checkpoints only
        at exit.
    clock / sleep:
        Injectable time sources for deterministic tests (monotonic
        seconds and a sleep function).
    """

    def __init__(
        self,
        service: Any,
        poll: Optional[Callable[[], int]] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        poll_interval: float = 0.5,
        checkpoint_every: Optional[float] = 10.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None)")
        self.service = service
        self.poll = poll
        self.checkpoint = checkpoint
        self.poll_interval = poll_interval
        self.checkpoint_every = checkpoint_every
        self.clock = clock
        self.sleep = sleep
        self._stop = False
        self.stop_signal: Optional[int] = None
        #: Iteration counters, exposed for tests and the CLI summary.
        self.polled = 0
        self.processed = 0
        self.released = 0
        self.checkpoints = 0

    # ------------------------------------------------------------------
    # stopping
    # ------------------------------------------------------------------

    def request_stop(self, signum: Optional[int] = None) -> None:
        """Ask the loop to finish the in-flight wave and exit."""
        self._stop = True
        if signum is not None and self.stop_signal is None:
            self.stop_signal = signum

    def stopping(self) -> bool:
        """Stop predicate handed to ``service.drain(stop=...)``."""
        return self._stop

    @contextmanager
    def _signals(self) -> Iterator[None]:
        """Install graceful SIGTERM/SIGINT handlers, restoring on exit."""

        def handler(signum: int, _frame: Any) -> None:
            self.request_stop(signum)

        previous = {}
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(sig, handler)
        except ValueError:
            # Not the main thread (tests driving the loop from a worker
            # thread): run without handlers; request_stop still works.
            pass
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def _checkpoint(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint()
            self.checkpoints += 1

    def _idle(self) -> None:
        """Nap ``poll_interval`` seconds, waking early on a stop request."""
        deadline = self.clock() + self.poll_interval
        while not self._stop:
            remaining = deadline - self.clock()
            if remaining <= 0:
                return
            self.sleep(min(remaining, _SLEEP_SLICE))

    def run(self, follow: bool = False) -> Optional[int]:
        """Serve until drained (or until a signal, in follow mode).

        Returns the signal number that stopped the loop, or ``None``
        for a natural exit (queue drained, not following).
        """
        with self._signals():
            next_checkpoint = (
                self.clock() + self.checkpoint_every
                if self.checkpoint_every is not None
                else None
            )
            while not self._stop:
                submitted = self.poll() if self.poll is not None else 0
                self.polled += submitted
                processed = len(self.service.drain(stop=self.stopping))
                self.processed += processed
                released = 0
                if not self._stop:
                    # A drain freed shard capacity: give backpressure-
                    # parked jobs (and only those) their queue slot back.
                    released = len(
                        self.service.release_parked(cause="depth")
                    )
                    self.released += released
                if next_checkpoint is not None and (
                    self.clock() >= next_checkpoint
                ):
                    self._checkpoint()
                    next_checkpoint = self.clock() + self.checkpoint_every
                if self._stop:
                    break
                if released:
                    continue  # drain the released jobs immediately
                if submitted == 0 and processed == 0:
                    if not follow:
                        break
                    self._idle()
            self._checkpoint()
        return self.stop_signal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopping" if self._stop else "running"
        return (
            f"ServeLoop({state}, processed={self.processed}, "
            f"checkpoints={self.checkpoints})"
        )
