"""Op accounting: attempts, failures by reason, and accuracy against the oracle.

An op is one z point of a trace, one diagnostic call, one matrix evaluation
or one CLI invocation.  It fails when it raises or exits non-zero, gives a
non-finite value, writes invalid strict JSON, or misses the oracle by more
than ``TOL`` (|d log I| for intensities, max_m |dP| for occupations,
relative error for every other number).

Failures inside a case that carries a known-defect label, and failures of
the defect probes, are tallied like any other failure but kept out of
``unexpected``: that count, and with it the run's ``correct`` flag, only
moves when something fails that is not already on record.
"""

from __future__ import annotations

import json
import math
from collections import Counter

TOL = 1e-8

# Defects of the program on record.  Failures in a case labelled with one of
# these are counted like any other but do not make the run incorrect.
SPLIT_PRODUCT = "split-product-below-threshold: inaccurate at N=40, Gamma < Gamma_c"
ASSEMBLY_OVERFLOW = "assembly-table-overflow: every value is NaN for N >= 86"
# periodicity_check refuses ("no candidate lag matches ...") some uniform grids
# whose start is shifted, although the occupations on them are accurate to
# ~1e-12 (see probe.n10-periodicity-shifted-grid)
PERIODICITY_SHIFT = "periodicity-grid-shift: refuses some shifted uniform grids at N=10"
# a failed op is reported under the first reason that applies, in this order
_PRECEDENCE = ("crashed", "refused", "nonfinite", "inaccurate")
MAX_DIGITS = 10.0


def digits(err: float) -> float:
    """clip(-log10 err, 0, 10); a non-finite error carries no digits."""
    if not math.isfinite(err):
        return 0.0
    if err <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(err)))


def worst_reason(reasons) -> str | None:
    for r in _PRECEDENCE:
        if r in reasons:
            return r
    return None


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, as a strict parser does."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.unexpected = 0
        self.min_digits: float | None = None
        self.max_err = {"log_i": 0.0, "occ": 0.0, "other": 0.0}
        self.probes: list[dict] = []
        self.notes: list[str] = []

    def error(self, kind: str, err: float, timed: bool = True) -> bool:
        """Record one oracle comparison; True when it is within TOL."""
        err = float(err)
        if math.isfinite(err):
            self.max_err[kind] = max(self.max_err[kind], err)
        if timed:
            d = digits(err)
            self.min_digits = d if self.min_digits is None else min(self.min_digits, d)
        return math.isfinite(err) and err <= TOL

    def ops(self, where: str, count: int, failures: Counter, known: str | None):
        """Account ``count`` ops of one case; ``failures`` maps reason -> ops."""
        self.attempted += count
        n_failed = sum(failures.values())
        self.failed.update(failures)
        if n_failed and known is None:
            self.unexpected += n_failed
        if n_failed and len(self.notes) < 40:
            tag = f" (known: {known})" if known else ""
            self.notes.append(f"{where}: {dict(failures)}{tag}")

    def probe(self, name: str, reason: str | None, detail: str, expected: str):
        self.attempted += 1
        if reason is not None:
            self.failed[reason] += 1
        self.probes.append({"name": name, "failed": reason is not None, "reason": reason,
                            "detail": detail, "expected_at_baseline": expected})

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())
