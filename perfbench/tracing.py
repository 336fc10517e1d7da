"""Spans and counters recorded from outside the package.

A ``Tracer`` replaces public functions of ``fairfl`` modules by wrappers,
one per call site: a function is patched on the module whose namespace the
caller looks it up in (``solve_lp`` on both ``fairfl.cli`` and
``fairfl.rounding``, for example).  Each wrapped call records a span
(name, start, end, parent) in memory; per-layer metrics are derived from
the spans when the run ends.  Nothing inside the package is modified, and a
run with tracing off installs none of these wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))
    maxima: dict = field(default_factory=lambda: defaultdict(float))
    model_keys: set = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple] = field(default_factory=list)

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def traced(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """``fn`` wrapped in a span; ``before`` may rewrite the arguments and
        ``after`` sees (args, kwargs, result) once the span has closed."""

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, module_name: str, attr: str, name: str, before=None, after=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, self.traced(name, original, before, after))
        self._patches.append((module, attr, original))

    def patch_default(self, module_name: str, func: str, index: int, name: str) -> None:
        """Wrap a callable bound as a default argument (``lpr_pipeline``'s
        ``rounder``), which module patching cannot reach."""
        fn = getattr(importlib.import_module(module_name), func)
        defaults = fn.__defaults__
        patched = list(defaults)
        patched[index] = self.traced(name, defaults[index])
        fn.__defaults__ = tuple(patched)
        self._patches.append((fn, "__defaults__", defaults))

    def install(self) -> None:
        """Patch every call site the per-layer metrics are read from."""
        cli, rnd = "fairfl.cli", "fairfl.rounding"
        # data and instance layers (set-up)
        self.patch(cli, "load_csv", "data.load_csv")
        self.patch(cli, "select_facilities_kmeans", "data.kmeans")
        self.patch(cli, "build_instance", "data.build_instance")
        self.patch(cli, "generate_synthetic", "data.synthetic")
        self.patch(cli, "prune_pairs", "instance.prune", after=self._count_pairs)
        for mod in (rnd, "fairfl.greedy", "fairfl.kmedian"):
            self.patch(mod, "assign_nearest", "instance.assign")
        # cli layer
        self.patch(cli, "run_sweep", "cli.sweep")
        self.patch(cli, "write_records", "cli.write")
        self.patch(cli, "_cell_worker", "cli.cell")
        self.patch(cli, "run_algorithm", "cli.algorithm")
        # lp layer
        for mod in (cli, rnd):
            self.patch(mod, "build_flfo_lp", "lp.build")
            self.patch(mod, "solve_lp", "lp.solve", before=self._count_model)
        self.patch("fairfl.lp", "linprog", "lp.highs", after=self._count_iters)
        # rounding layer
        self.patch(rnd, "identify_outliers", "rounding.partition", after=self._outlier_ratio)
        self.patch(rnd, "rescale", "rounding.rescale")
        self.patch_default(rnd, "lpr_pipeline", 0, "rounding.round")
        # greedy and k-median layers
        self.patch(cli, "gdf_f", "greedy.gdf", before=self._give_trace, after=self._count_events)
        self.patch(cli, "gdf_nf", "greedy.gdf", before=self._give_trace, after=self._count_events)
        self.patch(cli, "r_ls_f", "kmedian.rls")
        self.patch(cli, "r_ls_nf", "kmedian.rls")
        self.patch(cli, "ls_nf", "kmedian.ls_nf")
        self.patch("fairfl.kmedian", "local_search_penalties", "kmedian.ls")

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- counters read at the call sites ---------------------------------

    def _count_pairs(self, args, kwargs, inst) -> None:
        self.counters["instance.pairs"] += len(inst.allowed_pairs)

    def _count_model(self, args, kwargs):
        model = args[0]
        digest = hashlib.blake2b(digest_size=16)
        for arr in (model.c, model.rhs, model.a_matrix.indices, model.a_matrix.data):
            digest.update(arr.tobytes())
        self.model_keys.add((model.fairness, digest.hexdigest()))
        self.counters["lp.rows"] += model.n_rows
        self.counters["lp.cols"] += model.n_vars
        self.counters["lp.nnz"] += model.a_matrix.nnz
        return args, kwargs

    def _count_iters(self, args, kwargs, res) -> None:
        self.counters["lp.simplex_iters"] += int(res.nit)

    def _outlier_ratio(self, args, kwargs, part) -> None:
        budgets = args[2]
        fairness = args[4] if len(args) > 4 else kwargs.get("fairness", "per_group")
        if fairness == "per_group":
            pairs = [(len(s), cap) for s, cap in zip(part.outliers, budgets.per_group)]
        else:
            pairs = [(sum(len(s) for s in part.outliers), budgets.total)]
        for used, cap in pairs:
            if cap > 0:
                self.maxima["rounding.outlier_ratio_max"] = max(
                    self.maxima["rounding.outlier_ratio_max"], used / cap
                )

    def _give_trace(self, args, kwargs):
        from fairfl.greedy import DualTrace

        if kwargs.get("trace") is None and len(args) < 3:
            kwargs = dict(kwargs, trace=DualTrace())
        return args, kwargs

    def _count_events(self, args, kwargs, sol) -> None:
        trace = kwargs.get("trace") or args[2]
        self.counters["greedy.events"] += len(trace.events)

    # -- per-layer metrics -----------------------------------------------

    def metrics(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            total[span.name] += span.duration
            self_time[span.name] += span.self_s
            calls[span.name] += 1
        solo_algorithms = sum(
            1 for s in self.spans
            if s.name == "cli.algorithm" and (s.parent is None or self.spans[s.parent].name != "cli.cell")
        )
        return {
            "data.load_csv_s": total["data.load_csv"],
            "data.kmeans_s": total["data.kmeans"],
            "data.build_instance_s": total["data.build_instance"],
            "data.synthetic_s": total["data.synthetic"],
            "instance.prune_s": total["instance.prune"],
            "instance.pairs": self.counters["instance.pairs"],
            "instance.assign_s": total["instance.assign"],
            "instance.assign_calls": calls["instance.assign"],
            "lp.build_s": total["lp.build"],
            "lp.solve_s": total["lp.solve"],
            "lp.highs_s": total["lp.highs"],
            "lp.verify_s": self_time["lp.solve"],
            "lp.solves": calls["lp.solve"],
            "lp.distinct_models": len(self.model_keys),
            "lp.rows": self.counters["lp.rows"],
            "lp.cols": self.counters["lp.cols"],
            "lp.nnz": self.counters["lp.nnz"],
            "lp.simplex_iters": self.counters["lp.simplex_iters"],
            "rounding.partition_s": total["rounding.partition"],
            "rounding.rescale_s": total["rounding.rescale"],
            "rounding.round_s": total["rounding.round"],
            "rounding.outlier_ratio_max": self.maxima["rounding.outlier_ratio_max"],
            "greedy.gdf_s": total["greedy.gdf"],
            "greedy.calls": calls["greedy.gdf"],
            "greedy.events": self.counters["greedy.events"],
            "kmedian.rls_s": total["kmedian.rls"],
            "kmedian.ls_nf_s": total["kmedian.ls_nf"],
            "kmedian.ls_calls": calls["kmedian.ls"],
            "kmedian.ls_s": total["kmedian.ls"],
            "cli.sweep_s": total["cli.sweep"],
            "cli.sweep_self_s": self_time["cli.sweep"],
            "cli.write_s": total["cli.write"],
            "cli.cells": calls["cli.cell"] + solo_algorithms,
        }

    def coverage(self, root: str, run_s: float) -> float:
        """Share of ``run_s`` covered by the spans opened directly under the
        benchmark's ``root`` spans."""
        roots = {i for i, s in enumerate(self.spans) if s.name == root}
        covered = sum(s.duration for s in self.spans if s.parent in roots)
        return covered / run_s if run_s > 0 else math.nan
