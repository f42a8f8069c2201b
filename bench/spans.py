"""Span tracing of the library's layers, from outside the library.

``Tracer.install()`` replaces a fixed list of public entry points per
module with timing wrappers, by setting module attributes. A function is
replaced under its name in every modalwb module (and in the benchmark's
workload module) that holds the same function object, so calls made
through ``from .syntax import iter_nodes`` style imports are seen too.
``uninstall()`` puts the originals back.

Every wrapper records a span ``(op, id, parent, name, layer, start, end)``.
Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its direct children; the run is single
threaded, so children never overlap.

Frame methods and the bitmask helpers (``preimage_mask``, ``rows``,
``mask_of``, ``iter_bits``) are deliberately not wrapped: a depth op calls
them about 10^5 times. Their time lands in the layer that called them.

A few private functions get counter-only hooks (no span) where a count
cannot be read at a public boundary; a hook whose function no longer
exists is skipped, and its count then reads 0.
"""

from __future__ import annotations

import time

# Layer -> the public functions of that module that get a span.
ENTRY_POINTS = {
    "syntax": (
        "parse", "print_formula", "conj", "disj", "iter_nodes", "variables",
        "modalities", "depth", "star_translate", "diamond_union",
        "diamond_power", "diamond_upto", "pretransitivity_axiom",
        "finite_height_axiom", "finite_height_axiom_star",
        "reducible_path_axiom", "lex_sum_axioms", "difference_axioms",
    ),
    "frames": (
        "transitivity_index", "skeleton", "height", "is_path_reducible",
        "restriction", "is_upset", "generated_upset", "min_part",
        "cluster_frames", "disjoint_sum", "lex_sum", "expand",
        "quotient_filtration", "is_pmorphism", "union_relation", "rt_closure",
        "to_dict", "from_dict", "load_frame", "dump_frame", "to_dot",
    ),
    "semantics": ("extent", "validity_bruteforce", "model_depth", "restrict_model"),
    "partitions": (
        "induced_partition", "is_tuned", "refine_sequence",
        "coarsest_tuned_refinement", "frame_modal_depth", "subalgebra_size",
        "count_k_formulas",
    ),
    "definability": (
        "distinguishing_formulas", "build_jankov", "verify_definability",
        "stable_top",
    ),
    "audit": (
        "run_suite", "random_frame", "random_model", "random_upset",
        "random_partition", "satisfies_structure", "cluster_depth_bound",
        "non_adjacent_frame", "report_to_dict", "emit_report",
    ),
    "cli": ("main",),
}

# Generator functions: the wrapper drains the generator inside its span and
# then yields the saved items, so the span covers the generator's own work.
GENERATORS = {("syntax", "iter_nodes")}

# The benchmark's own constructors, timed as calls into a layer.
BENCH_ENTRY_POINTS = {"build_frame": "frames", "build_model": "semantics"}

LAYERS = tuple(ENTRY_POINTS)

COUNTS = (
    "frames.points",
    "syntax.formula_nodes",
    "semantics.valuation_space",
    "partitions.set_partitions",
    "partitions.stages",
    "definability.pairs_checked",
    "audit.draws",
)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class Tracer:
    def __init__(self, modules: dict, package, bench_module):
        self.modules = modules  # layer name -> module
        self.package = package  # re-exports the layers' functions
        self.bench_module = bench_module  # holds build_frame, build_model
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.accepted = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._deferred: list[tuple] = []
        self._saved: list[tuple] = []
        self._orig: dict[str, object] = {}

    # -- installation -------------------------------------------------

    def _replace(self, original, wrapper):
        for mod in [*self.modules.values(), self.package, self.bench_module]:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def install(self):
        for layer, names in ENTRY_POINTS.items():
            mod = self.modules[layer]
            for name in names:
                fn = getattr(mod, name)
                self._orig[f"{layer}.{name}"] = fn
                gen = (layer, name) in GENERATORS
                self._replace(fn, self._wrap(fn, f"{layer}.{name}", layer, gen))
        for name, layer in BENCH_ENTRY_POINTS.items():
            fn = getattr(self.bench_module, name)
            self._replace(fn, self._wrap(fn, f"bench.{name}", layer, False))
        self._hook_private()

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _hook_private(self):
        partitions = self.modules["partitions"]
        stab = getattr(partitions, "_stabilization_masks", None)
        if stab is not None:
            counts = self.counts

            def stabilization_hook(*args, **kwargs):
                stage = stab(*args, **kwargs)
                counts["partitions.stages"] += stage + 1
                return stage

            self._replace(stab, stabilization_hook)
        audit = self.modules["audit"]
        pick = getattr(audit, "_pick_correspondence_frame", None)
        if pick is not None:
            deferred = self._deferred

            def pick_hook(*args, **kwargs):
                before = len(deferred)
                frame = pick(*args, **kwargs)
                # frames drawn and then rejected by the suite's own filter
                drawn = sum(1 for d in deferred[before:] if d[0] == "audit.random_frame")
                self.accepted -= drawn - 1
                return frame

            self._replace(pick, pick_hook)

    # -- spans --------------------------------------------------------

    def _wrap(self, fn, name, layer, generator):
        tracer = self
        clock = time.perf_counter

        if generator:

            def gen_wrapper(*args, **kwargs):
                sid = tracer._enter()
                start = clock()
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    tracer._exit(sid, name, layer, start, clock())
                yield from items

            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = tracer._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._exit(sid, name, layer, start, end)
            tracer._deferred.append((name, args, kwargs, result))
            return result

        return wrapper

    def _enter(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _exit(self, sid, name, layer, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self._op, sid, parent, name, layer, start, end))

    def run_op(self, op_id: int, fn, item):
        """Run one op as a root span named ``op``; count after it ends."""
        self._op = op_id
        sid = self._enter()
        start = time.perf_counter()
        try:
            return fn(item)
        finally:
            end = time.perf_counter()
            self._exit(sid, "op", "bench", start, end)
            self._settle()

    # -- counts, taken after each op so that counting is not timed -----

    def _settle(self):
        iter_nodes = self._orig["syntax.iter_nodes"]
        variables = self._orig["syntax.variables"]
        c = self.counts
        for name, args, kwargs, result in self._deferred:
            if name in ("bench.build_frame", "frames.from_dict"):
                c["frames.points"] += result.n
            elif name == "semantics.validity_bruteforce":
                frame, formula = args[0], args[1]
                c["syntax.formula_nodes"] += sum(1 for _ in iter_nodes(formula))
                c["semantics.valuation_space"] += (1 << frame.n) ** len(variables(formula))
            elif name == "semantics.extent":
                c["syntax.formula_nodes"] += sum(1 for _ in iter_nodes(args[1]))
                c["semantics.valuation_space"] += 1
            elif name == "partitions.frame_modal_depth":
                mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
                if mode == "exact":
                    c["partitions.set_partitions"] += bell(args[0].n)
            elif name == "partitions.refine_sequence":
                c["partitions.stages"] += len(result[0])
            elif name == "definability.verify_definability":
                c["definability.pairs_checked"] += result.pairs_checked
            elif name == "audit.satisfies_structure":
                c["audit.draws"] += 1
            elif name == "audit.random_frame":
                self.accepted += 1
        self._deferred.clear()

    def reset(self):
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0
        self.accepted = 0

    # -- summary ------------------------------------------------------

    def summary(self, scale: dict) -> dict:
        """Per-layer self time (ms) and call counts over the recorded spans,
        plus the total op time and the unattributed (benchmark) part. Each
        op's spans are multiplied by ``scale[op]``, its factor to reference
        speed."""
        child_time: dict[int, float] = {}
        for _, _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_ms = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        op_ms = 0.0
        bench_ms = 0.0
        for op, sid, _, _, layer, start, end in self.spans:
            f = scale[op] * 1000
            own = (end - start - child_time.get(sid, 0.0)) * f
            if layer == "bench":
                op_ms += (end - start) * f
                bench_ms += own
            else:
                self_ms[layer] += own
                calls[layer] += 1
        return {"self_ms": self_ms, "calls": calls, "op_ms": op_ms, "bench_ms": bench_ms}
