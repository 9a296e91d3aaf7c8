"""Per-layer tracing from outside the program.

``Tracer`` swaps pedlex's public layer functions for timing wrappers while it
is installed, wherever a pedlex module has bound them, and puts the originals
back on exit. Nothing inside pedlex changes. Spans are aggregated in memory:
calls and busy seconds per function, plus one record per ``align_lists``
call, read once the traced pass is over.

Pool workers forked while a tracer is installed run the wrappers too, but
their counters stay in the worker; per-layer numbers of a pooled run
therefore come from a ``--jobs 1`` pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import pedlex

# the package re-exports a function named ``ped``, so import modules by path
corpus, distance, ped, similarity, tokenizer = (
    importlib.import_module(f"pedlex.{name}")
    for name in ("corpus", "distance", "ped", "similarity", "tokenizer")
)

# (module, function, span name); plain timing wrappers
_TIMED = (
    (tokenizer, "tokenize", "tokenizer"),
    (corpus, "extract_wordlists", "corpus.extract"),
    (corpus, "read_wordlist", "corpus.read"),
    (corpus, "write_wordlist", "corpus.write"),
    (distance, "phonetic_difference", "distance.pair"),
    (ped, "dp_labels", "ped.dp"),
    (similarity, "build_matrix", "similarity.matrix"),
)
_DP_SLOTS = ("dps", "cells", "abandoned", "prefiltered")


class Tracer:
    """Context manager timing every call into the traced pedlex functions."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.stats = pedlex.DpStats()
        self.cells: list[dict] = []  # one per align_lists call
        self.g2p_attempted = 0
        self.g2p_kept = 0
        self._restore: list[tuple[object, str, object]] = []
        self._tokenize = tokenizer.tokenize  # untraced, for summary()

    def reset(self) -> None:
        self.calls.clear()
        self.busy.clear()
        self.stats = pedlex.DpStats()
        self.cells.clear()
        self.g2p_attempted = self.g2p_kept = 0

    def summary(self, inventory) -> dict:
        """Plain-data totals of everything recorded since the last reset."""
        cells = []
        for cell in self.cells:
            if cell["skipped"]:
                continue
            lengths = [
                sum(len(self._tokenize(ipa, inventory)) for ipa in wl.ipa_strings())
                for wl in cell["lists"]
            ]
            cells.append(
                {k: cell[k] for k in ("seconds", "dp_s", "tokenize_s")}
                | {"grid": lengths[0] * lengths[1]}
            )
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "dp": {slot: getattr(self.stats, slot) for slot in _DP_SLOTS},
            "cells": cells,
            "g2p_attempted": self.g2p_attempted,
            "g2p_kept": self.g2p_kept,
        }

    def __enter__(self):
        for module, name, span in _TIMED:
            self._replace(module, name, self._timed(span, getattr(module, name)))
        self._replace(corpus, "g2p_convert", self._g2p(corpus.g2p_convert))
        self._replace(similarity, "align_lists", self._align(similarity.align_lists))
        rows_for = distance.SubstitutionCosts.rows_for
        distance.SubstitutionCosts.rows_for = self._timed("distance.rows", rows_for)
        self._restore.append((distance.SubstitutionCosts, "rows_for", rows_for))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _replace(self, module, name, wrapper) -> None:
        """Rebind ``name`` in every pedlex module that imported the original."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pedlex" or mod_name.startswith("pedlex."):
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, original))

    def _timed(self, span, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[span] += clock() - start
                calls[span] += 1

        return wrapper

    def _g2p(self, fn):
        timed = self._timed("corpus.g2p", fn)

        @functools.wraps(fn)
        def wrapper(words, *args, **kwargs):
            result = timed(words, *args, **kwargs)
            self.g2p_attempted += len(words.lemmas)
            self.g2p_kept += len(result.ipa_by_lemma or {})
            return result

        return wrapper

    def _align(self, fn):
        busy, clock = self.busy, time.perf_counter

        @functools.wraps(fn)
        def wrapper(l1, l2, *args, stats=None, **kwargs):
            own = stats if stats is not None else pedlex.DpStats()
            before = [getattr(own, slot) for slot in _DP_SLOTS]
            dp0, tok0 = busy["ped.dp"], busy["tokenizer"]
            start = clock()
            cell = fn(l1, l2, *args, stats=own, **kwargs)
            seconds = clock() - start
            self.cells.append(
                {
                    "seconds": seconds,
                    "dp_s": busy["ped.dp"] - dp0,
                    "tokenize_s": busy["tokenizer"] - tok0,
                    "lists": (l1, l2),
                    "skipped": cell.skipped,
                }
            )
            for slot, old in zip(_DP_SLOTS, before):
                setattr(self.stats, slot, getattr(self.stats, slot) + getattr(own, slot) - old)
            return cell

        return wrapper
