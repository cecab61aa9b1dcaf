"""Spans and counts around the public functions of ``bctk``, from outside.

A :class:`Tracer` replaces every alias of each traced function -- module
globals such as ``from .bct import compose_seq`` in ``verify``, and values of
module-level dispatch tables such as ``verify.SUITES`` -- with a wrapper that
counts calls and accumulates inclusive and self time, then puts every
original back on exit.  Self time is a span's duration minus the time covered
by its child spans.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# Traced functions as (metric name, module, attribute).  A class is traced
# through its ``__init__``.
LAYER_TARGETS = (
    ("systems.pair_label", "systems", "pair_label"),
    ("systems.flatten_label", "systems", "flatten_label"),
    ("systems.unflatten_label", "systems", "unflatten_label"),
    ("bct.Transformation", "bct", "Transformation"),
    ("bct.compose_seq", "bct", "compose_seq"),
    ("bct.compose_par", "bct", "compose_par"),
    ("bct.par_with_identity", "bct", "par_with_identity"),
    ("bct.swap", "bct", "swap"),
    ("bct.apply", "bct", "apply"),
    ("bct.pull", "bct", "pull"),
    ("bct.reversible", "bct", "reversible"),
    ("classical.compose_seq", "classical", "compose_seq"),
    ("classical.compose_par", "classical", "compose_par"),
    ("ontic.ontic_map", "ontic", "ontic_map"),
    ("ontic.ontic_state", "ontic", "ontic_state"),
    ("ontic.ontic_effect", "ontic", "ontic_effect"),
    ("ontic.merge_chain", "ontic", "merge_chain"),
    ("lct.random_candidate", "lct", "random_candidate"),
    ("lct.jellyfish_matrix", "lct", "jellyfish_matrix"),
    ("lct.falsify", "lct", "falsify"),
    ("lct.pairing_value", "lct", "pairing_value"),
    ("dsl.parse", "dsl", "parse"),
    ("dsl.eval_bct", "dsl", "eval_bct"),
    ("dsl.eval_ontic", "dsl", "eval_ontic"),
    ("cli.main", "cli", "main"),
)

SUITES = ("linearity", "diagram", "probability", "determinacy", "atomicity", "swap",
          "codec")
SUITE_TARGETS = tuple((f"verify.{s}", "verify", f"suite_{s}") for s in SUITES)
TARGETS = LAYER_TARGETS + SUITE_TARGETS

# lru-cached functions whose hit ratio is read from ``cache_info()``.
CACHED = (("systems", "pair_label"), ("systems", "unflatten_label"),
          ("ontic", "merge_chain"), ("ontic", "merge_perm"))

# Functions returning a dense ClassicalMap whose cells and nonzeros are counted.
MAP_RESULTS = frozenset({"classical.compose_seq", "classical.compose_par",
                         "ontic.ontic_map"})


def _module(name: str):
    return sys.modules[f"bctk.{name}"]


def _namespaces():
    """Every dict in which a bctk function can be looked up by name."""
    for modname, mod in list(sys.modules.items()):
        if modname == "bctk" or modname.startswith("bctk."):
            space = vars(mod)
            yield space
            yield from (v for v in list(space.values()) if type(v) is dict)


class Tracer:
    """Install with ``with Tracer(targets):``; read :meth:`metrics` afterwards."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        import bctk.cli  # noqa: F401  (loads every traced module)

        self.targets = targets
        self.clock = clock
        # name -> [calls, inclusive seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in targets}
        self.cells = 0
        self.nnz = 0
        self.active = True
        self._stack: list[float] = []
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, modname, attr in self.targets:
                orig = getattr(_module(modname), attr)
                if isinstance(orig, type):
                    init = orig.__dict__["__init__"]
                    setattr(orig, "__init__", self._wrap(name, init))
                    self._undo.append(functools.partial(setattr, orig, "__init__", init))
                    continue
                wrapper = self._wrap(name, orig)
                for space in _namespaces():
                    for key, value in list(space.items()):
                        if value is orig:
                            space[key] = wrapper
                            self._undo.append(functools.partial(space.__setitem__, key, orig))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = self.clock
        count_map = name in MAP_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += span
                stats[2] += span - children
                if stack:
                    stack[-1] += span
            if count_map:
                # Counting is benchmark work: charge it to no span's self time.
                begin = clock()
                self.cells += result.entries.size
                self.nnz += int(np.count_nonzero(result.entries))
                if stack:
                    stack[-1] += clock() - begin
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def total_s(self, name: str) -> float:
        return self.stats[name][1]

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        for name, _, _ in self.targets:
            calls, _, self_s = self.stats[name]
            if not name.startswith("verify."):
                out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for modname, attr in CACHED:
            info = getattr(_module(modname), attr).cache_info()
            lookups = info.hits + info.misses
            out[f"{modname}.{attr}.hit_ratio"] = (
                info.hits / lookups if lookups else 0.0, "ratio")
        out["classical.cells"] = (self.cells, "count")
        out["classical.nnz"] = (self.nnz, "count")
        out["classical.density"] = (self.nnz / self.cells if self.cells else 0.0, "ratio")
        return out
