"""Record kernels: pack each event at the hook into a thread buffer.

The record hook packs the event straight into the calling thread's
``bytearray`` in the 39-byte record layout of :mod:`repro.events.spill`,
so the hot path is one kernel call and one buffer extend -- nothing to
garbage-collect, nothing to re-encode downstream.

Two kernels implement the same call signature and byte output:

- :data:`repro._fastrecord.Recorder` -- a small C extension
  (vectorcall, one-slot thread cache) built opportunistically by
  ``setup.py``; roughly 3x faster than the pure-python kernel.
- :class:`PyRecorder` -- the pure-python fallback, a per-thread
  ``struct.pack`` closure cached in a ``threading.local``.

:func:`make_recorder` auto-selects at import time; :data:`KERNEL`
names the winner (``"c"`` or ``"python"``).

Both kernels resolve their per-thread buffer through a *bind*
callable -- the slow boundary.  The collector's bind registers the
thread and asks the channel for the thread's buffer via
:meth:`~repro.events.channel.Channel.acquire_buffer`, which is where
the backpressure gate and the drained-channel refusal live: the
per-event store itself is unconditional.  ``invalidate()`` forces each
thread's next record back through bind.
"""

from __future__ import annotations

import threading
from typing import Callable

from .spill import _RECORD

try:  # pragma: no cover - exercised only where the extension was built
    from repro._fastrecord import Recorder as _CRecorder
except ImportError:  # pure-python fallback
    _CRecorder = None

#: Which record kernel this process uses: ``"c"`` or ``"python"``.
KERNEL: str = "c" if _CRecorder is not None else "python"


def kernel_name() -> str:
    """Name of the active record kernel (``"c"`` or ``"python"``)."""
    return KERNEL


class PyRecorder:
    """Pure-python record kernel: same signature and byte output as the
    compiled ``Recorder``, one ``struct.pack`` + ``bytearray`` extend
    per event through a thread-local closure.

    ``invalidate()`` swaps the ``threading.local`` wholesale, so every
    thread's next call re-enters ``bind`` (the channel's gate)."""

    __slots__ = ("_bind", "_tls")

    def __init__(self, bind: Callable[[], tuple[int, bytearray]]) -> None:
        self._bind = bind
        self._tls = threading.local()

    def __call__(self, instance_id, op, kind, position, size) -> None:
        try:
            pack = self._tls.pack
        except AttributeError:
            pack = self._rebind()
        pack(instance_id, op, kind, position, size)

    def _rebind(self):
        tid, buf = self._bind()

        def pack(
            instance_id,
            op,
            kind,
            position,
            size,
            _buf=buf,
            _tid=tid,
            _pack=_RECORD.pack,
        ):
            if position is None:
                _buf += _pack(instance_id, 0, size, _tid, op, kind, 0, 0.0)
            else:
                _buf += _pack(instance_id, position, size, _tid, op, kind, 1, 0.0)

        self._tls.pack = pack
        return pack

    def invalidate(self) -> None:
        self._tls = threading.local()


def make_recorder(bind: Callable[[], tuple[int, bytearray]]):
    """The fastest available record kernel bound to ``bind``."""
    if _CRecorder is not None:
        return _CRecorder(bind)
    return PyRecorder(bind)
