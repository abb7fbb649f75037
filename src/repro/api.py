"""Top-level multiplication API: :func:`repro.multiply`.

The kernels have a strict **format contract** — PB-SpGEMM streams its
first operand column-major and its second row-major, so every kernel
takes ``(A as CSC, B as CSR)``.  :func:`multiply` is the front door
that hides this: it accepts COO / CSR / CSC (or a ``scipy.sparse``
matrix, or a dense ``numpy.ndarray``) in either position, converts each
operand to the kernel-facing format, resolves string semirings, and
routes ``PBConfig`` to the PB pipeline.  The ``@`` operator on
:class:`~repro.matrix.csr.CSRMatrix` / :class:`~repro.matrix.csc.CSCMatrix`
/ :class:`~repro.matrix.coo.COOMatrix` delegates here.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .kernels.dispatch import ALGORITHMS, get_algorithm
from .semiring import PLUS_TIMES, Semiring, get_semiring


def _coerce(operand, side: str, fmt: str):
    """Convert one operand to CSC (``fmt="csc"``) or CSR (``fmt="csr"``)."""
    converter = getattr(operand, f"to_{fmt}", None)
    if converter is not None:
        return converter()
    if isinstance(operand, np.ndarray):
        from .matrix.csc import CSCMatrix
        from .matrix.csr import CSRMatrix

        cls = CSCMatrix if fmt == "csc" else CSRMatrix
        return cls.from_dense(operand)
    # scipy.sparse matrices expose .tocsc/.tocsr rather than .to_csc/.to_csr.
    if hasattr(operand, "tocsc") and hasattr(operand, "tocsr"):
        from .matrix.csc import CSCMatrix
        from .matrix.csr import CSRMatrix

        cls = CSCMatrix if fmt == "csc" else CSRMatrix
        return cls.from_scipy(operand)
    raise FormatError(
        f"operand {side} must be a repro sparse matrix (COO/CSR/CSC), a "
        f"scipy.sparse matrix, or a dense ndarray; got {type(operand).__name__}"
    )


def multiply(
    a,
    b,
    algorithm="pb",
    semiring: Semiring | str = PLUS_TIMES,
    config=None,
    feedback: bool = False,
    session=None,
    shards=None,
    **kwargs,
):
    """C = A · B over any registered algorithm and semiring.

    Format contract
    ---------------
    Every kernel consumes ``(A as CSC, B as CSR)`` — A streams
    column-major, B row-major (paper Alg. 2).  ``multiply`` accepts
    :class:`~repro.matrix.coo.COOMatrix`,
    :class:`~repro.matrix.csr.CSRMatrix`,
    :class:`~repro.matrix.csc.CSCMatrix`, ``scipy.sparse`` matrices, or
    dense ``numpy`` arrays in either position and converts as needed;
    operands already in the expected format pass through zero-copy.
    The product is always canonical CSR.

    Parameters
    ----------
    a, b:
        The operands, in any supported format.
    algorithm:
        One of :func:`repro.available_algorithms` (default the paper's
        ``"pb"``), the string ``"auto"`` — let :mod:`repro.planner`
        choose the algorithm and its tile grid or shard count from
        measured kernel costs and the plan cache — or an explicit :class:`repro.planner.Plan`.  The
        auto path is bit-identical to invoking the chosen algorithm
        directly.
    semiring:
        A :class:`~repro.semiring.Semiring` or a registered name such
        as ``"min_plus"``.
    config:
        Optional :class:`~repro.core.PBConfig`.  Applies to any
        config-aware algorithm: ``"pb"`` consumes the full pipeline
        tuning; the column kernels (heap / hash / hashvec / spa, all
        the one panel kernel) and ``esc_column`` accept it and have
        nothing to read.  With ``"auto"`` it
        parameterizes the planner (``plan_cache_dir``, executor
        request) and is forwarded to the chosen kernel.
    feedback:
        ``algorithm="auto"`` only: record the measured runtime into the
        plan cache, so repeated shapes converge on the true winner even
        where the model is wrong.
    session:
        Optional :class:`repro.session.Session`, passed as ``session=``
        to session-capable algorithms (``supports_session`` in
        :func:`repro.kernels.algorithm_metadata`): they run on the
        session's warm process pool and recycled shared-memory arenas
        instead of spawning per call.  ``algorithm="auto"`` prices
        process candidates at warm-dispatch latency when the pool is
        already running.  When ``config`` is omitted the session's default
        config applies.  Results are unchanged — bit-identical to the
        session-less call.
    shards:
        Route through the multi-process sharded tiled executor
        (:mod:`repro.core.sharded`): an int worker count, ``"auto"``
        (derive from ``os.cpu_count()`` and the memory budget), or
        ``None`` (off).  Applies to ``algorithm`` ``"pb"`` (upgraded
        to ``"sharded"``), ``"tiled"`` (likewise), ``"sharded"``, and
        ``"auto"`` (the planner weighs the sharded candidate); any
        other algorithm raises :class:`ConfigError`.  Equivalent to
        setting ``PBConfig.shards``.  Results stay bit-identical.
    kwargs:
        Forwarded to the kernel.
    """
    sr = get_semiring(semiring)
    a_csc = _coerce(a, "A", "csc")
    b_csr = _coerce(b, "B", "csr")
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")

    if session is not None and config is None:
        config = session.config

    if shards is not None:
        if algorithm not in ("pb", "tiled", "sharded", "auto"):
            raise ConfigError(
                f"shards= applies to algorithm 'pb', 'tiled', 'sharded' or "
                f"'auto', not {algorithm!r}"
            )
        from .core.sharded import sharded_config

        config = sharded_config(config, shards)
        if algorithm in ("pb", "tiled"):
            algorithm = "sharded"
    elif (
        algorithm in ("pb", "tiled")
        and config is not None
        and getattr(config, "shards", None) is not None
    ):
        algorithm = "sharded"

    chosen_plan = None
    if algorithm == "auto":
        from .planner import plan as make_plan

        chosen_plan = make_plan(
            a_csc,
            b_csr,
            semiring=sr,
            config=config,
            warm_pool=session.is_warm() if session is not None else False,
        )
    elif hasattr(algorithm, "algorithm") and hasattr(algorithm, "config"):
        chosen_plan = algorithm  # an explicit repro.planner.Plan

    if chosen_plan is not None:
        info = get_algorithm(chosen_plan.algorithm)
        if info.supports_config and chosen_plan.config is not None:
            kwargs.setdefault("config", chosen_plan.config)
    else:
        info = get_algorithm(algorithm)
        if config is not None:
            if not info.supports_config:
                raise ConfigError(
                    f"config= (PBConfig) does not apply to "
                    f"algorithm={algorithm!r}; config-aware algorithms: "
                    + ", ".join(sorted(n for n, i in ALGORITHMS.items()
                                       if i.supports_config))
                    + ", or 'auto'"
                )
            kwargs["config"] = config
    if session is not None and info.supports_session:
        kwargs["session"] = session
    if chosen_plan is None or not feedback:
        return info.func(a_csc, b_csr, semiring=sr, **kwargs)

    import time

    from .planner import default_cache, resolve_cache_dir

    t0 = time.perf_counter()
    result = info.func(a_csc, b_csr, semiring=sr, **kwargs)
    elapsed = time.perf_counter() - t0
    default_cache(resolve_cache_dir(config)).record_feedback(
        chosen_plan.cache_key, chosen_plan.algorithm, elapsed
    )
    return result


def spgemm(
    a,
    b,
    algorithm="pb",
    semiring: Semiring | str = PLUS_TIMES,
    config=None,
    session=None,
    **kwargs,
):
    """Thin alias of :func:`multiply` under the paper-facing name.

    Same format contract: operands may be COO / CSR / CSC (or scipy
    sparse / dense numpy); each is converted to the kernel-facing
    ``(A as CSC, B as CSR)`` pair, so ``repro.spgemm(a, b)`` works on
    whatever formats you hold.  The stricter positional entry point
    that skips conversion lives at :func:`repro.kernels.spgemm`.
    """
    return multiply(
        a,
        b,
        algorithm=algorithm,
        semiring=semiring,
        config=config,
        session=session,
        **kwargs,
    )
