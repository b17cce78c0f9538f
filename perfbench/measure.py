"""Op timing, failure accounting and percentiles for the benchmark.

An op *fails* when it raises, when the solver gives up, or when its output
misses one of the benchmark's checks.  A failure is also *wrong output*
when it is not one of the documented ways a solve can end badly: an
unexpected exception, or output that contradicts itself (a manifest whose
checksums do not match the files, a missing file, output that changes
between repeats of the same input).  Every failure counts in ``failed``;
only wrong output makes a run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

MIN_BEYOND = 10


class OpFailed(Exception):
    """The op ran, but missed an acceptance check or reported non-convergence."""


class WrongOutput(Exception):
    """The op's output contradicts itself or the program's documented behaviour."""


@dataclass(frozen=True)
class OpResult:
    latency_s: float
    failure: str | None = None
    wrong: bool = False


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}".splitlines()[0][:200]


def run_op(call, check, expected=()) -> OpResult:
    """Time ``call()``, then run ``check(result)`` outside the timed region.

    Exceptions of the types in ``expected`` and ``OpFailed`` from the check
    are failures; any other exception is wrong output.
    """
    start = perf_counter()
    try:
        result = call()
    except expected as exc:
        return OpResult(perf_counter() - start, _describe(exc))
    except Exception as exc:  # any other error is a defect to report, not a crash
        return OpResult(perf_counter() - start, _describe(exc), wrong=True)
    latency = perf_counter() - start
    try:
        check(result)
    except OpFailed as exc:
        return OpResult(latency, str(exc))
    except Exception as exc:  # a check that cannot even read the output
        return OpResult(latency, _describe(exc), wrong=True)
    return OpResult(latency)


def tally(results) -> dict:
    """Attempted, failed and wrong counts, and failures grouped by reason."""
    reasons: dict[str, int] = {}
    for r in results:
        if r.failure is not None:
            reasons[r.failure] = reasons.get(r.failure, 0) + 1
    return {
        "attempted": len(results),
        "failed": sum(r.failure is not None for r in results),
        "wrong": sum(r.wrong for r in results),
        "reasons": dict(sorted(reasons.items())),
    }


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank ``q``-th percentile, or None with fewer than
    ``min_beyond`` samples beyond it."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]

