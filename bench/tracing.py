"""In-memory spans around every public capa function, and the per-layer metrics.

A traced pass replaces each public function of the capa modules, in its own
module and in every capa module that imported it, with a wrapper that records
a span: name, start, end, parent and a few counts read from the arguments or
the result.  Calls the benchmark makes through the module attributes are
traced the same way.  Nothing is patched outside a traced pass.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("physics", "quadrature", "kernel_approx", "cg_solver", "analysis", "spda", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


def _rows(shape) -> int:
    n = 1
    for d in shape[:-1]:
        n *= int(d)
    return n


def _solve_attrs(args, kwargs, result, error):
    op, rhs = args[0], args[1]
    state = result if error is None else getattr(error, "state", None)
    key = repr((op.grid.order, op.grid.aperture, op.config)).encode() + rhs.tobytes()
    return {"iterations": state.iterations if state is not None else 0,
            "problem": hashlib.sha1(key).hexdigest()}


def _coupling_attrs(args, kwargs, result, error):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return {"mode": mode, "elements": args[0].n_elements}


# counts recorded per function: (args, kwargs, result, error) -> attrs
ANNOTATE = {
    "physics.radiation_kernel": lambda a, k, r, e: {"evals": _rows(a[0].shape)},
    "physics.wavenumber_kernel": lambda a, k, r, e: {"evals": _rows(a[0].shape)},
    "quadrature.aperture_grid": lambda a, k, r, e: {"nodes": r.size if r else 0},
    "quadrature.disk_wavenumber_grid": lambda a, k, r, e: {"nodes": r.term_count if r else 0},
    "kernel_approx.inverse_operator": lambda a, k, r, e: {"n": a[0].term_count},
    "cg_solver.discretize_operator": lambda a, k, r, e: {"points": a[1].size},
    "cg_solver.solve_fredholm": _solve_attrs,
    "analysis.beampattern": lambda a, k, r, e: {"points": r.values.size if r else 0},
    "spda.coupling_matrix": _coupling_attrs,
}


class Tracer:
    """Records spans while installed; install() and uninstall() patch and restore."""

    def __init__(self):
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, start=time.perf_counter(), parent=parent, attrs=attrs)
        (parent.children if parent else self.roots).append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
                if annotate is not None:
                    span.attrs.update(annotate(args, kwargs, result, error))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"capa.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("capa.") or home.split(".")[1] not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{home.split('.')[1]}.{value.__name__}", value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def walk(spans):
    for span in spans:
        yield span
        yield from walk(span.children)


def _total(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _attr_sum(spans, name: str, attr: str) -> float:
    return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)


def _attr_max(spans, name: str, attr: str) -> float:
    return max((s.attrs.get(attr, 0) for s in spans if s.name == name), default=0)


def _layer_self(spans, layer: str) -> float:
    return sum(s.self_time for s in spans if s.layer == layer)


def pass_metrics(pass_span: Span) -> dict:
    """Per-layer metrics of one traced pass; the cli metrics stay 0 unless
    cli_metrics fills them."""
    spans = list(walk(pass_span.children))
    ka_solves = [s for s in spans if s.name == "kernel_approx.beamform_ka"]
    # a beamform_ka call without shared resolvent data factors inside itself
    factor_inside = sum(c.duration for s in ka_solves for c in s.children
                        if c.name in ("kernel_approx.gram_matrix",
                                      "kernel_approx.inverse_operator"))
    ka_solve_s = sum(s.duration for s in ka_solves) - factor_inside
    cg_solves = [s for s in spans if s.name == "cg_solver.solve_fredholm"]
    iterations = sum(s.attrs.get("iterations", 0) for s in cg_solves)
    cg_solve_s = sum(s.duration for s in cg_solves)
    problems = len({s.attrs["problem"] for s in cg_solves})
    couplings = [s for s in spans if s.name == "spda.coupling_matrix"]
    covered = sum(s.duration for s in pass_span.children)
    return {
        "physics.kernel_s": _total(spans, "physics.radiation_kernel")
        + _total(spans, "physics.wavenumber_kernel"),
        "physics.kernel_evals": _attr_sum(spans, "physics.radiation_kernel", "evals")
        + _attr_sum(spans, "physics.wavenumber_kernel", "evals"),
        "quadrature.s": _layer_self(spans, "quadrature"),
        "quadrature.nodes": _attr_sum(spans, "quadrature.aperture_grid", "nodes")
        + _attr_sum(spans, "quadrature.disk_wavenumber_grid", "nodes"),
        "kernel_approx.expansion_s": _total(spans, "kernel_approx.build_expansion"),
        "kernel_approx.gram_s": _total(spans, "kernel_approx.gram_matrix"),
        "kernel_approx.resolvent_s": _total(spans, "kernel_approx.inverse_operator"),
        "kernel_approx.resolvent_n": _attr_max(spans, "kernel_approx.inverse_operator", "n"),
        "kernel_approx.factorizations": _count(spans, "kernel_approx.inverse_operator"),
        "kernel_approx.solve_s": ka_solve_s,
        "kernel_approx.solve_ms_per_dir": 1e3 * ka_solve_s / max(len(ka_solves), 1),
        "cg_solver.assemble_s": _total(spans, "cg_solver.discretize_operator"),
        "cg_solver.grid_points": _attr_max(spans, "cg_solver.discretize_operator", "points"),
        "cg_solver.solve_s": cg_solve_s,
        "cg_solver.iterations": iterations,
        "cg_solver.iter_ms": 1e3 * cg_solve_s / max(iterations, 1),
        "cg_solver.synth_s": _total(spans, "cg_solver.synthesize_beamformer"),
        "cg_solver.useful_ratio": problems / max(len(cg_solves), 1),
        "analysis.beampattern_s": _total(spans, "analysis.beampattern"),
        "analysis.pattern_points": _attr_sum(spans, "analysis.beampattern", "points"),
        "spda.coupling_exact_s": sum(s.duration for s in couplings
                                     if s.attrs.get("mode") == "exact"),
        "spda.coupling_point_s": sum(s.duration for s in couplings
                                     if s.attrs.get("mode") == "point"),
        "spda.channel_s": _total(spans, "spda.discrete_channel"),
        "spda.beamform_s": _total(spans, "spda.optimal_discrete_beamformer"),
        "spda.elements": _attr_max(spans, "spda.coupling_matrix", "elements"),
        "trace_coverage": covered / pass_span.duration,
        "cli.import_s": 0.0,
        "cli.config_s": 0.0,
        "cli.run_s": 0.0,
        "cli.self_s": 0.0,
        "cli.output_bytes": 0,
    }


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def to_json(span: Span) -> dict:
    return {"name": span.name, "start": span.start, "end": span.end, "attrs": span.attrs,
            "children": [to_json(c) for c in span.children]}


def from_json(doc: dict, parent: Span | None = None) -> Span:
    span = Span(name=doc["name"], start=doc["start"], end=doc["end"], parent=parent,
                attrs=doc["attrs"])
    span.children = [from_json(c, span) for c in doc["children"]]
    return span


def cli_metrics(pass_span: Span, import_s: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced cli pass.

    The pass span's children are the ``cli.main`` spans of its subcommand
    processes; import time and output size are measured around them.
    """
    metrics = pass_metrics(pass_span)
    spans = list(walk(pass_span.children))
    metrics.update({
        "cli.import_s": import_s,
        "cli.config_s": _total(spans, "cli.load_config"),
        "cli.run_s": _total(spans, "cli.run"),
        "cli.self_s": _layer_self(spans, "cli"),
        "cli.output_bytes": output_bytes,
    })
    return metrics
