"""Span tracer for the traced run, installed from outside the program.

The program has no tracing of its own. :meth:`Tracer.install` swaps the
public functions and methods of each layer (the modules under
``src/repro/``) for wrappers that record a span — name, start, end, parent
span, phase and operation id — and a few counts read off the arguments or the
result. Functions are replaced in every loaded ``repro`` module that holds
them, so ``from .x import f`` call sites are traced too. Spans stay in memory
and are written out when the run ends; :func:`layer_metrics` turns them into
the per-layer metrics.

Spark evaluates lazily, so the wrappers of functions that return a
DataFrame materialize it inside the span (``count``, after ``cache`` where a
later step reads it again) and count the Spark jobs the span ran through a
job group of its own.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str
    op: str | None
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cached: list = []
        self.sc = None  # the SparkContext, set by the spark workload
        self.phase = "setup"
        self.op: str | None = None
        self.paused = False

    # -- spans ----------------------------------------------------------------
    def _begin(self, name: str, spark: bool) -> Span:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.phase, self.op, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        if spark and self.sc is not None:
            self.sc.setJobGroup(f"perfbench-{sp.id}", name)
        sp.t0 = time.perf_counter()
        return sp

    def _end(self, sp: Span, spark: bool) -> None:
        sp.t1 = time.perf_counter()
        self._stack.pop()
        if spark and self.sc is not None:
            tracker = self.sc.statusTracker()
            sp.attrs["jobs"] = len(tracker.getJobIdsForGroup(f"perfbench-{sp.id}"))
            outer = self._stack[-1].id if self._stack else None
            self.sc.setJobGroup(
                f"perfbench-{outer}" if outer is not None else "perfbench-idle", "perfbench"
            )

    def call(self, name: str, fn, args, kwargs, hook=None, spark=False, materialize=None,
             pre=None):
        if self.paused:
            return fn(*args, **kwargs)
        before = pre(args) if pre is not None else None
        sp = self._begin(name, spark)
        try:
            out = fn(*args, **kwargs)
            if materialize == "cache":
                out = out.cache()
                self._cached.append(out)
            if materialize is not None:
                sp.attrs["rows"] = out.count()
        finally:
            self._end(sp, spark)
        if hook is not None:
            hook(sp, args, out, before)
        return out

    # -- patching ---------------------------------------------------------------
    def _wrapper(self, name, fn, hook, spark, materialize, pre=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook, spark, materialize, pre)

        return traced

    def patch_function(self, module: str, attr: str, name: str, hook=None, spark=False,
                       materialize=None) -> None:
        original = getattr(importlib.import_module(module), attr)
        traced = self._wrapper(name, original, hook, spark, materialize)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, traced)

    def patch_method(self, module: str, cls: str, attr: str, name: str, hook=None,
                     pre=None) -> None:
        klass = getattr(importlib.import_module(module), cls)
        original = klass.__dict__[attr]
        self._patches.append((klass, attr, original))
        setattr(klass, attr, self._wrapper(name, original, hook, False, None, pre))

    def install(self, spark: bool = False) -> None:
        """Wrap every layer's public calls (the Spark layers only if ``spark``)."""
        self.patch_function("repro.tgraph.schema", "flat_pdf_to_packed_pdf", "schema.pack",
                            _hook_pack)
        # triangles() memoizes; only the call that enumerates is a span
        model = importlib.import_module("repro.core.model")
        tri_original = model.TemporalGraph.__dict__["triangles"]

        def triangles(g):
            if getattr(g, "_tri", None) is not None or self.paused:
                return tri_original(g)
            return self.call("model.triangles", tri_original, (g,), {}, _hook_triangles)

        self._patches.append((model.TemporalGraph, "triangles", tri_original))
        model.TemporalGraph.triangles = triangles
        self.patch_method("repro.core.model", "TemporalGraph", "insert", "model.insert")
        self.patch_function("repro.core.decomposition", "trussness", "decomposition.trussness")
        self.patch_function("repro.core.decomposition", "peel_to_truss", "decomposition.peel")
        self.patch_function("repro.core.mba", "mba", "mba.mba", _hook_mba)
        self.patch_function("repro.core.kspan", "dba", "kspan.dba")
        for cls, layer in (("TCIndex", "tc_index"), ("DCIndex", "dc_index")):
            mod = f"repro.core.{layer}"
            self.patch_method(mod, cls, "__init__", f"{layer}.build", _hook_index)
            self.patch_method(mod, cls, "query_ids", f"{layer}.query_ids")
        self.patch_method("repro.core.tc_index", "TCIndex", "query", "tc_index.query",
                          _hook_answer)
        self.patch_method("repro.core.dc_index", "DCIndex", "query", "dc_index.query",
                          _hook_dc_answer)
        self.patch_method("repro.core.tc_index", "TCIndex", "refresh", "tc_index.refresh",
                          _hook_refresh, pre=lambda args: args[0].kmax)
        self.patch_function("repro.core.online", "online_query", "online.query", _hook_online)
        self.patch_function("repro.core.maintenance", "update_kspan_table",
                            "maintenance.update", _hook_update)
        self.patch_method("repro.core.maintainers", "TCMaintainer", "insert",
                          "maintainers.tc_insert")
        self.patch_method("repro.core.maintainers", "DCMaintainer", "insert",
                          "maintainers.dc_insert")
        if spark:
            self.patch_function("repro.tgraph.schema", "pack_flat", "spark_index.pack",
                                spark=True, materialize="cache")
            self.patch_function("repro.triangles.enumerate", "enumerate_triangles",
                                "enumerate.triangles", spark=True, materialize="cache")
            self.patch_function("repro.core.spark_index", "temporal_graph_from_spark",
                                "spark_index.collect", spark=True)
            self.patch_function("repro.core.spark_index", "kspan_table_to_df",
                                "spark_index.publish", spark=True, materialize="count")
            self.patch_function("repro.core.spark_index", "build_index_spark",
                                "spark_index.build", spark=True)
            self.patch_function("repro.core.spark_index", "tc_query_spark",
                                "spark_index.scan", spark=True, materialize="count")
            self.patch_function("repro.core.online", "online_query_spark", "online.spark",
                                spark=True, materialize="count")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for df in self._cached:
            df.unpersist()
        self._cached.clear()

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "phase": s.phase, "op": s.op,
             "start": s.t0, "end": s.t1, **s.attrs}
            for s in self.spans
        ]


# -- count hooks: read sizes off arguments and results, outside the span -------

def _hook_pack(sp, args, out, before=None):
    sp.attrs["edges_out"] = int(len(out))
    sp.attrs["mean_tau"] = float(np.mean([len(ts) for ts in out["ts"]])) if len(out) else 0.0


def _hook_triangles(sp, args, out, before=None):
    sp.attrs["triangles"] = int(out.n)


def _hook_mba(sp, args, table, before=None):
    tri = args[0].triangles()
    # the sweep invalidates every triangle with mts > 0 exactly once
    sp.attrs["triangles_invalidated"] = int((tri.mts > 0).sum())
    sp.attrs["kspan_cells"] = int(sum(int((s >= 0).sum()) for s in table.spans.values()))


def _dc_tree(index):
    """(nodes, lookup rows) of a DC-Index in the layout these walks read —
    ``nodes[key].parent`` and ``rows[k] = (run starts, run nodes)`` — or None."""
    nodes, rows = getattr(index, "nodes", None), getattr(index, "rows", None)
    if isinstance(nodes, dict) and isinstance(rows, dict):
        return nodes, rows
    return None


def _hook_index(sp, args, out, before=None):
    index = args[0]
    sp.attrs["total_edges"] = int(index.total_edges())
    if hasattr(index, "avg_entries"):
        sp.attrs["avg_entries"] = float(index.avg_entries())
    tree = _dc_tree(index)
    if tree is not None:
        sp.attrs["nodes"] = len(tree[0])
        sp.attrs["lookup_runs"] = int(sum(len(starts) for starts, _ in tree[1].values()))


def _hook_answer(sp, args, out, before=None):
    sp.attrs["answer"] = len(out)


def _hook_dc_answer(sp, args, out, before=None):
    sp.attrs["answer"] = len(out)
    sp.attrs["path_nodes"] = dc_path_nodes(*args)


def dc_path_nodes(index, k: int, delta: float) -> int | None:
    """Tree nodes on the root path DC-Query unions for (k, δ), walked from
    outside the index (None where the lookup row does not apply)."""
    import bisect

    tree = _dc_tree(index)
    if tree is None or k not in tree[1] or delta < 0:
        return None
    nodes, rows = tree
    starts, reps = rows[k]
    key = reps[bisect.bisect_right(starts, min(delta, index.delta_max)) - 1]
    n = 0
    while key is not None:
        n += 1
        key = nodes[key].parent
    return n


def _hook_refresh(sp, args, out, before=None):
    # refresh() rebuilds the touched levels plus the levels a kmax rise added
    touched, kmax_after = args[2], args[0].kmax
    sp.attrs["levels"] = len(set(touched) | set(range(before + 1, kmax_after + 1)))


def _hook_online(sp, args, out, before=None):
    sp.attrs["answer_frac"] = len(out) / max(1, args[0].m)


def _hook_update(sp, args, stats, before=None):
    sp.attrs["kind"] = stats.kind
    sp.attrs["touched_levels"] = len(stats.touched_ks)
    sp.attrs["region_edges"] = int(sum(stats.region_sizes.values()))
    sp.attrs["changed_spans"] = int(sum(stats.changed.values()))
    sp.attrs["promoted"] = int(sum(stats.promoted.values()))


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans: ``{name: (value, unit)}``.

    Times of one call are medians over the calls made in the traced run;
    counts are read from the spans (totals over the run unless named per
    call). Every metric is present on every workload: a layer the workload
    did not call reads 0.
    """
    spans = [s for s in tracer.spans if s.t1 > 0]
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    out: dict[str, tuple[float, str]] = {}

    def put(metric, values, unit, agg=np.median, scale=1.0):
        values = [v for v in values if v is not None]
        value = float(agg(np.asarray(values, dtype=float))) * scale if values else 0.0
        out[metric] = (value, unit)

    def durs(name, phase=None):
        return [s.dur for s in by_name.get(name, []) if phase is None or s.phase == phase]

    def selfs(name):
        return [s.dur - child_time.get(s.id, 0.0) for s in by_name.get(name, [])]

    def attrs(name, key):
        return [s.attrs.get(key) for s in by_name.get(name, [])]

    put("schema.pack_s", durs("schema.pack"), "s")
    put("schema.edges_out", attrs("schema.pack", "edges_out"), "count")
    put("schema.mean_tau", attrs("schema.pack", "mean_tau"), "ratio")
    put("model.triangles_s", durs("model.triangles"), "s")
    put("model.triangles", attrs("model.triangles", "triangles"), "count")
    put("model.insert_s", durs("model.insert"), "s")
    put("decomposition.trussness_s", durs("decomposition.trussness"), "s")
    peels = durs("decomposition.peel", phase="pass")
    out["decomposition.peel_calls"] = (float(len(peels)), "count")
    out["decomposition.peel_s"] = (float(sum(peels)), "s")
    put("mba.s", selfs("mba.mba"), "s")
    put("mba.triangles_invalidated", attrs("mba.mba", "triangles_invalidated"), "count")
    put("mba.kspan_cells", attrs("mba.mba", "kspan_cells"), "count")
    put("kspan.dba_s", durs("kspan.dba"), "s")

    for layer in ("tc_index", "dc_index"):
        put(f"{layer}.build_s", durs(f"{layer}.build"), "s")
        put(f"{layer}.total_edges", attrs(f"{layer}.build", "total_edges"), "count")
        put(f"{layer}.lookup_us", durs(f"{layer}.query_ids", phase="pass"), "us", scale=1e6)
        put(f"{layer}.materialize_us",
            [s.dur - child_time.get(s.id, 0.0) for s in by_name.get(f"{layer}.query", [])
             if s.phase == "pass"], "us", scale=1e6)
    put("tc_index.avg_entries", attrs("tc_index.build", "avg_entries"), "count")
    put("tc_index.answer_edges",
        [s.attrs["answer"] for s in by_name.get("tc_index.query", []) if s.phase == "pass"],
        "count", agg=np.mean)
    put("tc_index.refresh_s", durs("tc_index.refresh"), "s")
    put("tc_index.refresh_levels", attrs("tc_index.refresh", "levels"), "count", agg=np.sum)
    put("dc_index.nodes", attrs("dc_index.build", "nodes"), "count")
    put("dc_index.lookup_runs", attrs("dc_index.build", "lookup_runs"), "count")
    paths = [s.attrs.get("path_nodes") for s in by_name.get("dc_index.query", [])
             if s.phase == "pass"]
    put("dc_index.path_nodes", paths, "count", agg=np.mean)

    put("online.query_ms", durs("online.query", phase="pass"), "ms", scale=1e3)
    put("online.answer_frac", attrs("online.query", "answer_frac"), "ratio", agg=np.mean)

    upd = by_name.get("maintenance.update", [])
    put("maintenance.update_ts_ms", [s.dur for s in upd if s.attrs["kind"] == "ts"], "ms",
        scale=1e3)
    put("maintenance.update_edge_ms", [s.dur for s in upd if s.attrs["kind"] == "edge"],
        "ms", scale=1e3)
    out["maintenance.kind_ts"] = (float(sum(s.attrs["kind"] == "ts" for s in upd)), "count")
    out["maintenance.kind_edge"] = (float(sum(s.attrs["kind"] == "edge" for s in upd)), "count")
    region = sum(s.attrs["region_edges"] for s in upd)
    changed = sum(s.attrs["changed_spans"] for s in upd)
    for key in ("touched_levels", "region_edges", "changed_spans", "promoted"):
        out[f"maintenance.{key}"] = (float(sum(s.attrs[key] for s in upd)), "count")
    out["maintenance.changed_per_region"] = (changed / region if region else 0.0, "ratio")

    update_time = {s.parent: s.dur for s in upd if s.parent is not None}
    for side in ("tc", "dc"):
        ins = by_name.get(f"maintainers.{side}_insert", [])
        put(f"maintainers.{side}_patch_ms", [s.dur - update_time.get(s.id, 0.0) for s in ins],
            "ms", scale=1e3)
    dc_ins = {s.id for s in by_name.get("maintainers.dc_insert", [])}
    out["maintainers.dc_rederive_count"] = (
        float(sum(s.parent in dc_ins for s in by_name.get("dc_index.build", []))), "count")

    put("enumerate.s", durs("enumerate.triangles"), "s")
    put("enumerate.rows", attrs("enumerate.triangles", "rows"), "count")
    put("enumerate.jobs", attrs("enumerate.triangles", "jobs"), "count")
    put("spark_index.pack_s", durs("spark_index.pack"), "s")
    put("spark_index.collect_s", selfs("spark_index.collect"), "s")
    put("spark_index.publish_s", durs("spark_index.publish"), "s")
    put("spark_index.publish_rows", attrs("spark_index.publish", "rows"), "count")
    put("spark_index.scan_s", durs("spark_index.scan"), "s")
    put("online.spark_s", durs("online.spark"), "s")
    put("online.spark_jobs", attrs("online.spark", "jobs"), "count")
    return out
