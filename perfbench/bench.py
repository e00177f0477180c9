"""Shared pieces of the benchmark: paths, fresh imports, and the timed pass."""

from __future__ import annotations

import importlib
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class Undecided(Exception):
    """The program returned without a verdict: a budget ran out."""


def fresh_import(names: tuple[str, ...]) -> SimpleNamespace:
    """Import ramsey3 modules anew, so repeated set-ups each pay the import."""
    for name in [m for m in sys.modules if m == "ramsey3" or m.startswith("ramsey3.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n.rsplit(".", 1)[-1]: importlib.import_module(n) for n in names})


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    """Input generator of one pass; a string seed hashes the same in every process."""
    return random.Random(f"{workload}/{seed}/{index}")


class Pass:
    """One pass over a workload's operation list.

    op() times one program call, then judges its result outside the timed
    region.  A call that raises or returns no verdict counts as failed; a
    verdict that the checker rejects makes the pass incorrect.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.timed = 0.0
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.n_failed = 0
        self.wrong: dict[str, str] = {}
        self.n_wrong = 0
        self.extra: dict[str, float] = {}

    def op(self, name: str, call: Callable, check: Callable[[object], Optional[str]]):
        """Run call(); return its result when it passed its check, else None."""
        self.attempted += 1
        span = self.tracer.begin_op(name) if self.tracer else None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the op boundary: record the fault, run the rest
            self.timed += time.perf_counter() - t0
            self._end(span)
            return self._fail(name, f"{type(exc).__name__}: {str(exc)[:160]}")
        self.timed += time.perf_counter() - t0
        self._end(span)
        try:
            problem = check(result)
        except Undecided as why:
            return self._fail(name, str(why))
        except Exception as exc:  # a malformed output is a wrong output
            problem = f"checker raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.n_wrong += 1
            self.wrong.setdefault(name, problem)
            return None
        return result

    def _end(self, span) -> None:
        if span is not None:
            self.tracer.finish(span)

    def _fail(self, name: str, why: str) -> None:
        self.n_failed += 1
        self.failed.setdefault(name, why)
        return None
