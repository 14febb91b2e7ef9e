"""Spans around calls into tanglecount's public entry points, recorded from
outside the package by replacing module and class attributes.

Only entry points are wrapped; the per-term helpers (`union`, `z`) run
millions of times and stay untouched.  A span is [group, parent index,
start ns, end ns]; spans stay in memory until `write` at process end.
A group's self time is its spans' durations minus the time covered by
their child spans, so self times of all groups add up without overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "species.solve_R.incl_s": "s",
    "species.dissymmetry_U.incl_s": "s",
    "species.dissymmetry_U.self_s": "s",
    "species.count.calls": "count",
    "species.count.self_s": "s",
    "species.r_coefficient.calls": "count",
    "species.cache.hits": "count",
    "species.cache.misses": "count",
    "species.coeff_max_bits": "bits",
    "cycle_index.plethysm.calls": "count",
    "cycle_index.plethysm.self_s": "s",
    "cycle_index.mul.calls": "count",
    "cycle_index.mul.self_s": "s",
    "cycle_index.mul.term_pairs": "count",
    "cycle_index.inner_plethysm.self_s": "s",
    "cycle_index.kronecker.self_s": "s",
    "cycle_index.max_terms": "count",
    "partitions.partitions_of.calls": "count",
    "partitions.partitions_of.self_s": "s",
    "partitions.visited": "count",
    "oracle.enumerate.calls": "count",
    "oracle.enumerate.self_s": "s",
    "oracle.trees_enumerated": "count",
    "oracle.fix_count.calls": "count",
    "oracle.fix_count.self_s": "s",
    "oracle.burnside_count.self_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.cached: list = []  # lru_cache'd entry points, for cache_info()
        self._bits_seen: set[int] = set()

    def wrap(self, group: str, fn, after=None):
        """`fn` with a span per call; `after(args, result)` records counts
        once the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters taken at the wrappers ---------------------------------

    def note_terms(self, series) -> None:
        if len(series.terms) > self.maxima["cycle_index.max_terms"]:
            self.maxima["cycle_index.max_terms"] = len(series.terms)

    def note_bits(self, series) -> None:
        # a cached series comes back many times; scan each object once
        if id(series) in self._bits_seen:
            return
        self._bits_seen.add(id(series))
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for c in series.terms.values()),
            default=0,
        )
        self.maxima["species.coeff_max_bits"] = max(self.maxima["species.coeff_max_bits"], bits)

    # -- results --------------------------------------------------------

    def summary(self) -> dict[str, float]:
        child_ns = [0] * len(self.spans)
        for group, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, int] = defaultdict(int)
        excl: dict[str, int] = defaultdict(int)
        for i, (group, parent, start, end) in enumerate(self.spans):
            calls[group] += 1
            incl[group] += end - start
            excl[group] += end - start - child_ns[i]
        hits = sum(fn.cache_info().hits for fn in self.cached)
        misses = sum(fn.cache_info().misses for fn in self.cached)
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            group, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls[group]
            elif stat == "incl_s":
                out[name] = incl[group] / 1e9
            elif stat == "self_s":
                out[name] = excl[group] / 1e9
            elif name == "species.cache.hits":
                out[name] = hits
            elif name == "species.cache.misses":
                out[name] = misses
            elif name in self.maxima:
                out[name] = self.maxima[name]
            else:
                out[name] = self.counts[name]
        return out

    def write(self, path: str) -> None:
        """All spans, with group names indexed once."""
        groups = sorted({span[0] for span in self.spans})
        index = {g: i for i, g in enumerate(groups)}
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["group", "parent", "start_ns", "end_ns"],
                    "groups": groups,
                    "spans": [[index[g], p, s, e] for g, p, s, e in self.spans],
                },
                handle,
                separators=(",", ":"),
            )


def _term_pairs(a, b) -> int:
    """Exact work of a series product: the sum of |A_da| * |B_db| over
    degree pairs with da + db within the truncation degree."""
    n_max = min(a.degree, b.degree)
    sizes_a: dict[int, int] = defaultdict(int)
    sizes_b: dict[int, int] = defaultdict(int)
    for lam in a.terms:
        sizes_a[lam.size] += 1
    for lam in b.terms:
        sizes_b[lam.size] += 1
    return sum(
        na * nb
        for da, na in sizes_a.items()
        for db, nb in sizes_b.items()
        if da + db <= n_max
    )


def install() -> Tracer:
    """Wrap the public entry points of every layer and return the tracer."""
    import tanglecount
    from tanglecount import cli, cycle_index, oracle, partitions, species

    tracer = Tracer()
    modules = (tanglecount, partitions, cycle_index, species, oracle, cli)
    series_cls = cycle_index.CycleIndexSeries

    def patch(module, name: str, group: str, after=None):
        # modules bind imported names at import time, so rebind every copy
        original = getattr(module, name)
        traced = tracer.wrap(group, original, after)
        for m in modules:
            if m.__dict__.get(name) is original:
                setattr(m, name, traced)
        return original

    def patch_method(name: str, group: str, after):
        setattr(series_cls, name, tracer.wrap(group, series_cls.__dict__[name], after))

    def count_into(counter: str):
        def after(args, result):
            tracer.counts[counter] += len(result)
        return after

    def series_result(args, result):
        tracer.note_terms(result)

    def product(args, result):
        if isinstance(args[1], series_cls):
            tracer.counts["cycle_index.mul.term_pairs"] += _term_pairs(args[0], args[1])
        if isinstance(result, series_cls):
            tracer.note_terms(result)

    def solved(args, result):
        tracer.note_terms(result)
        tracer.note_bits(result)

    def counted(args, result):
        bits = result.bit_length()
        if bits > tracer.maxima["species.coeff_max_bits"]:
            tracer.maxima["species.coeff_max_bits"] = bits

    patch(partitions, "partitions_of", "partitions.partitions_of", count_into("partitions.visited"))
    patch_method("plethysm", "cycle_index.plethysm", series_result)
    patch_method("__mul__", "cycle_index.mul", product)
    patch_method("kronecker", "cycle_index.kronecker", series_result)
    patch(cycle_index, "inner_plethysm_pk", "cycle_index.inner_plethysm", series_result)
    patch(cycle_index, "inner_plethysm_hn", "cycle_index.inner_plethysm", series_result)
    tracer.cached.append(
        patch(species, "binary_tree_cycle_index", "species.solve_R", solved)
    )
    tracer.cached.append(
        patch(species, "unrooted_tree_cycle_index", "species.dissymmetry_U", solved)
    )
    patch(species, "count", "species.count", counted)
    patch(species, "r_coefficient", "species.r_coefficient")
    patch(oracle, "enumerate_rooted", "oracle.enumerate", count_into("oracle.trees_enumerated"))
    patch(oracle, "enumerate_unrooted", "oracle.enumerate", count_into("oracle.trees_enumerated"))
    patch(oracle, "fix_count", "oracle.fix_count")
    patch(oracle, "burnside_count", "oracle.burnside_count")
    patch(cli, "main", "cli")
    return tracer
