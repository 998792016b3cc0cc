"""Per-layer tracing from outside minkring.

During a traced pass every listed public function and method of the
minkring modules is replaced, in this process only, by a wrapper that
records a span: its name, its parent span, its duration and the part of
that duration its child spans cover.  A span's self time (duration minus
children) goes to one per-layer metric, so the self times of all spans
plus the ``unattributed`` remainder (the benchmark's own code between
calls, and wrapper bookkeeping) add up to the traced wall time.  Spans
are aggregated by (parent, name) in memory and printed when the run ends.
Counters are read from call arguments and results, and from the
``cache_info()`` of the lru caches; the caches are cleared at the start of
every pass, so their statistics are per pass.

The one inclusive time is ``presentations.setup_ms``: wall time inside
Presentation constructors, including the check of the declared kernel
generators, whose self times also appear under the other layers.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute or Class.method, metric the self time goes to, and a
# counter: a COUNT_METRICS name to count calls in, or a hook of Tracer)
ARITH = "laurent.arith_ms"
WRAPPED = [
    ("cli", "main", "cli.verb_ms", None),
    *[("cli", f"cmd_{v}", "cli.verb_ms", None) for v in (
        "member", "euler", "normalize", "tile", "identity", "minimal_covers",
        "product", "classify")],
    ("cli", "ring_from_selector", "cli.verb_ms", None),
    ("cli", "product_from_selector", "cli.verb_ms", None),
    ("cli", "catalog_polytope", "cli.verb_ms", None),
    ("cli", "parse_poly", "cli.parse_ms", "payload"),
    ("cli", "parse_scalar", "cli.parse_ms", None),
    ("cli", "parse_gridset", "cli.parse_ms", None),
    ("cli", "parse_cover", "cli.parse_ms", None),
    *[("laurent", f"LaurentPoly.{m}", ARITH, "laurent.arith_calls") for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
        "__pow__", "power_map", "substitute")],
    ("laurent", "poly_sum", ARITH, "laurent.arith_calls"),
    ("laurent", "LaurentPoly.to_text", "laurent.text_ms", None),
    *[("rewriting", f, "rewriting.assembly_ms", "terms") for f in (
        "first_normal_form", "second_normal_form", "triangle_tiling", "edge_tiling",
        "strip_identity", "strip_edge_identity", "core_identity")],
    *[("rewriting", f, "rewriting.assembly_ms", None) for f in (
        "second_normal_form_pieces", "hexagon_counts", "homogeneous_sum",
        "triangle_points_poly", "piece_text", "verify_strip", "verify_triangle_tiling",
        "verify_edge_tiling")],
    ("presentations", "Presentation.__init__", "presentations.other_ms", "setup"),
    ("presentations", "Presentation.phi", "presentations.phi_ms", "phi"),
    ("presentations", "Presentation._phi_monomial", "presentations.phi_ms", "image"),
    ("presentations", "Presentation.kernel_member", "presentations.phi_ms", None),
    ("presentations", "Presentation.kernel_witness", "presentations.witness_ms", None),
    ("presentations", "Presentation.generator_power",
     "presentations.generator_power_ms", None),
    *[("presentations", f, "presentations.other_ms", None) for f in (
        "coxeter_ring", "box_ring", "interval_ring", "point_ring")],
    ("simplefn", "multiply", "simplefn.multiply_ms", "simplefn.multiply_calls"),
    ("simplefn", "multiply_by_indicator", "simplefn.mbi_ms", "simplefn.mbi_calls"),
    ("simplefn", "indicator", "simplefn.indicator_ms", None),
    ("simplefn", "SimpleFunction.__init__", "simplefn.canonicalize_ms", "cells_in"),
    ("simplefn", "_canonical_line_terms", "simplefn.canonicalize_ms", None),
    ("simplefn", "_closed_basis", "simplefn.closed_basis_ms", None),
    *[("simplefn", f, "simplefn.other_ms", None) for f in (
        "combine", "euler_char", "evaluate_at", "unit")],
    ("geometry", "minkowski_sum", "geometry.minkowski_sum_ms", "geometry.minkowski_sums"),
    ("geometry", "decompose_cells", "geometry.decompose_ms", "cells_out"),
    ("geometry", "faces", "geometry.faces_ms", None),
    *[("geometry", f, "geometry.other_ms", None) for f in (
        "scale", "negate", "translate", "intersect")],
    ("scalars", "Scalar.sign", "scalars.sign_ms", "scalars.sign_calls"),
    *[("scalars", f"Scalar.{m}", "scalars.arith_ms", None) for m in (
        "__add__", "__sub__", "__mul__", "__lt__")],
    *[("identities", f, "identities.antichain_ms", None) for f in (
        "minimal_antichains", "covers_relation", "_is_antichain")],
    ("identities", "id_holds", "identities.id_holds_ms", None),
    ("identities", "covers_vertices", "identities.antichain_ms",
     "identities.covers_checked"),
    *[("identities", f, "identities.other_ms", None) for f in (
        "id_context", "id_expand", "anchored", "cover")],
    *[("products", f, "products.tensor_ms", None) for f in (
        "product_presentation", "verify_tensor_identity", "random_ideal_element",
        "rename_poly", "ProductPresentation.split")],
    ("products", "psi_split", "products.tensor_ms", "products.split_calls"),
]

TIME_METRICS = sorted({metric for _, _, metric, _ in WRAPPED} | {"presentations.setup_ms"})
COUNT_METRICS = [
    "cli.payload_chars", "laurent.arith_calls", "rewriting.terms_built",
    "presentations.terms_in", "presentations.distinct_monomials",
    "presentations.distinct_shapes", "presentations.image_cells",
    "simplefn.multiply_calls", "simplefn.mbi_calls", "simplefn.cells_in",
    "geometry.minkowski_sums", "geometry.decompose_calls", "geometry.cells_emitted",
    "geometry.faces_calls", "geometry.cache_entries", "scalars.sign_calls",
    "identities.covers_checked", "products.split_calls",
]
RATIO_METRICS = ["geometry.decompose_hit_ratio", "geometry.faces_hit_ratio"]


class Tracer:
    """Span recorder for one run; install() patches, uninstall() restores."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.stack: list = []          # [name, child seconds] per open span
        self.spans: dict = {}          # (parent, name) -> [count, total s, self s]
        self.pass_metrics: list = []   # one dict per traced pass
        self._patches: list = []
        self._metrics: dict = {}
        self._monos: set = set()
        self._shapes: set = set()
        self._points: dict = {}

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, metric, hook in WRAPPED:
            module = self.modules[f"minkring.{mod_name}"]
            owner_name, _, meth = attr.rpartition(".")
            span = f"{mod_name}.{attr}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[meth]
                wrapper = self._wrap(original, span, metric, hook)
                self._patches.append((owner, meth, original))
                setattr(owner, meth, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, metric, hook)
            # Rebind every name that refers to the function, including the
            # copies that ``from module import name`` made elsewhere.
            for other in self.modules.values():
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, name, original))
                        setattr(other, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, fn, span, metric, hook):
        tracer = self
        stack = self.stack
        spans = self.spans
        if hook in COUNT_METRICS:
            on_result = lambda args, result, dt: tracer._add(hook)  # noqa: E731
        else:
            on_result = getattr(self, f"_hook_{hook}") if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                own = dt - frame[1]
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else "-", span)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, dt, own]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += own
                m = tracer._metrics
                m[metric] = m.get(metric, 0.0) + own
                if parent is not None:
                    parent[1] += dt
            if on_result is not None:
                h0 = perf_counter()
                on_result(args, result, dt)
                if parent is not None:
                    parent[1] += perf_counter() - h0
            return result
        return traced

    # -- counters fed from arguments and results ---------------------------

    def _add(self, key, n=1):
        self._metrics[key] = self._metrics.get(key, 0) + n

    def _hook_payload(self, args, result, dt):
        self._add("cli.payload_chars", len(args[0]))

    def _hook_terms(self, args, result, dt):
        polys = result if isinstance(result, tuple) else (result,)
        self._add("rewriting.terms_built",
                  sum(len(p.terms) for p in polys if hasattr(p, "terms")))

    def _hook_setup(self, args, result, dt):
        self._add("presentations.setup_ms", dt)

    def _hook_phi(self, args, result, dt):
        pres, poly = args[0], args[1]
        points = self._points.get(id(pres))
        if points is None:
            geo = self.modules["minkring.geometry"]
            points = {n for n, g in pres.generators.items() if geo.dim(g.polytope) == 0}
            self._points[id(pres)] = points
        ring = pres.ring_id
        self._add("presentations.terms_in", len(poly.terms))
        for m in poly.terms:
            self._monos.add((ring, m))
            self._shapes.add((ring, tuple(p for p in m if p[0] not in points)))

    def _hook_image(self, args, result, dt):
        self._add("presentations.image_cells", len(result.terms))

    def _hook_cells_in(self, args, result, dt):
        terms = args[2] if len(args) > 2 else None
        self._add("simplefn.cells_in", len(terms) if terms else 0)

    def _hook_cells_out(self, args, result, dt):
        self._add("geometry.cells_emitted", len(result))

    # -- passes --------------------------------------------------------------

    def begin_pass(self) -> None:
        self._metrics = {}
        self._monos = set()
        self._shapes = set()
        self._points = {}
        self.install()

    def end_pass(self, wall_s: float) -> None:
        self.uninstall()
        geo = self.modules["minkring.geometry"]
        m = self._metrics
        out = {k: m.get(k, 0.0) * 1000 for k in TIME_METRICS}
        for k in COUNT_METRICS:
            out[k] = m.get(k, 0)
        out["presentations.distinct_monomials"] = len(self._monos)
        out["presentations.distinct_shapes"] = len(self._shapes)
        entries = 0
        for name, key in (("decompose_cells", "decompose"), ("faces", "faces")):
            info = getattr(geo, name).cache_info()
            calls = info.hits + info.misses
            out[f"geometry.{key}_calls"] = calls
            out[f"geometry.{key}_hit_ratio"] = info.hits / calls if calls else 0.0
            entries += info.currsize
        out["geometry.cache_entries"] = entries
        self_ms = sum(v for k, v in out.items()
                      if k in TIME_METRICS and k != "presentations.setup_ms")
        out["trace.traced_pass_ms"] = wall_s * 1000
        out["trace.unattributed_ms"] = wall_s * 1000 - self_ms
        self.pass_metrics.append(out)

    def open_root(self, name: str) -> None:
        """Open the root span of one query; its self time is unattributed."""
        self.stack.append([f"query:{name}", 0.0])

    def close_root(self) -> None:
        self.stack.pop()

    def span_table(self, passes: int, limit: int = 40) -> list:
        """The heaviest aggregated spans by self time, per traced pass."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])[:limit]
        return [f"span {parent} > {name}: calls {rec[0] / passes:.0f}"
                f" total {rec[1] * 1000 / passes:.2f} ms self {rec[2] * 1000 / passes:.2f} ms"
                for (parent, name), rec in rows]
