"""Cached availability probe for the compiled hot-kernel tier.

THE place the JIT tier decides whether it can run.  The tier has one
engine, a runtime-compiled C library (``_cc.py``): every compiled
kernel is one translation unit built with the system C compiler and
loaded through :mod:`ctypes`.  Probing is done exactly once per process
and the result is exposed three ways:

* :func:`probe` — consumed by the engine loader in ``__init__`` before
  it builds the library;
* :meth:`JITStatus.to_dict` — the JSON-friendly status surfaced by
  ``repro machine --json`` so users can see whether the tier is active
  and, if not, why.

Falling back to numpy is silent: no caller asks for the tier by name,
so an absent engine is a status to report, not a warning to raise.

When the compiler is found but the library cannot be built or loaded
(compiler error, unwritable cache directory), the loader calls
:func:`record_engine_failure`, which replaces the cached status with an
unavailable one carrying the real cause — so availability checks and
the machine report never claim a working engine.

Environment overrides (read at probe time, re-read on ``refresh``):

``REPRO_JIT_DISABLE``
    Any value other than ``""``/``"0"`` disables the tier outright.
``CC``
    Preferred C compiler, tried before ``cc``, ``gcc`` and ``clang``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import asdict, dataclass

__all__ = [
    "JITStatus",
    "probe",
    "record_engine_failure",
    "reset_probe_cache",
]


@dataclass(frozen=True)
class JITStatus:
    """Cached result of the one-time engine probe."""

    #: Active engine: ``"cc"`` or ``"none"``.
    engine: str
    #: Whether the compiled engine is usable.
    available: bool
    #: Resolved C compiler executable, else None.
    cc_compiler: str | None
    #: Why the engine is unavailable (no compiler, disabled, or the
    #: build/load error), else None.
    cc_reason: str | None
    #: Whether REPRO_JIT_DISABLE was set.
    disabled: bool

    def to_dict(self) -> dict:
        return asdict(self)


_STATUS: JITStatus | None = None


def _probe_cc() -> tuple[str | None, str | None]:
    """(compiler path, reason) for the runtime-C engine."""
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path, None
    return None, "no C compiler on PATH (tried $CC, cc, gcc, clang)"


def probe(refresh: bool = False) -> JITStatus:
    """Run (or return the cached) engine probe."""
    global _STATUS
    if _STATUS is not None and not refresh:
        return _STATUS

    disabled = os.environ.get("REPRO_JIT_DISABLE", "") not in ("", "0")
    if disabled:
        cc_compiler, cc_reason = None, "tier disabled"
    else:
        cc_compiler, cc_reason = _probe_cc()
    available = cc_compiler is not None
    _STATUS = JITStatus(
        engine="cc" if available else "none",
        available=available,
        cc_compiler=cc_compiler,
        cc_reason=cc_reason,
        disabled=disabled,
    )
    return _STATUS


def record_engine_failure(exc: BaseException) -> JITStatus:
    """Mark the cached status unavailable because the engine build failed."""
    global _STATUS
    _STATUS = dataclasses.replace(
        probe(),
        engine="none",
        available=False,
        cc_reason=f"cc engine build failed ({type(exc).__name__}: {exc})",
    )
    return _STATUS


def reset_probe_cache() -> None:
    """Forget the cached probe (tests only)."""
    global _STATUS
    _STATUS = None
