"""Incremental control plane: step a run one minute at a time.

:mod:`repro.serve.session` owns the :class:`ControlSession` API —
``open_session(...)`` returns a session whose ``advance()`` executes one
simulated minute on any of the three engines and reports that minute's
decisions; ``snapshot()``/``restore()`` make sessions survive process
restarts. :mod:`repro.serve.app` wraps sessions in a multi-tenant
HTTP service on the stdlib ``ThreadingHTTPServer``.
:mod:`repro.serve.journal` adds crash durability: a per-session
write-ahead journal with snapshot compaction, and a supervisor that
rebuilds every tenant bit-identically after a SIGKILL.
"""

from repro.serve.journal import (
    JournalError,
    JournalSupervisor,
    SessionJournal,
)
from repro.serve.session import (
    AdvanceResult,
    ControlSession,
    TraceMeta,
    open_session,
)

__all__ = [
    "AdvanceResult",
    "ControlSession",
    "JournalError",
    "JournalSupervisor",
    "SessionJournal",
    "TraceMeta",
    "open_session",
]
