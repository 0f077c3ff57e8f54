"""Incremental control plane: step a run one minute at a time.

:mod:`repro.serve.session` owns the :class:`ControlSession` API —
``open_session(...)`` returns a session whose ``advance()`` executes one
simulated minute on either engine and reports that minute's decisions.
:mod:`repro.serve.app` wraps sessions in a multi-tenant HTTP service
with its own HTTP/1.1 request loop. :mod:`repro.serve.journal` holds a
session's persistent form, its inputs document (the JSON spec plus the
advances it accepted), and adds crash durability: a per-session
write-ahead journal compacted into that document, and a supervisor that
rebuilds every tenant bit-identically after a SIGKILL.
"""

from repro.serve.journal import (
    JournalError,
    JournalSupervisor,
    SessionInputs,
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
    "SessionInputs",
    "SessionJournal",
    "TraceMeta",
    "open_session",
]
