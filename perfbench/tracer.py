"""Outside-in tracer: wraps the package's layer functions from outside `src/`.

Each traced function is replaced at every place a caller looks it up
(module attribute, from-import copy, or dispatch table), so one wrapper
object sees every call. Spans carry name, start, end, parent and request id
and stay in memory until the run ends; work quantities (rows, steps, bytes)
are recorded on the span so counts are measured where the work happens.
"""

import itertools
import os
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent_id: int
    request_id: int
    name: str
    start: float
    end: float
    error: bool
    work: dict

    @property
    def duration(self):
        return self.end - self.start


def _write_output_work(args, result):
    return {"rows": len(args[2]), "bytes": os.path.getsize(result)}


# span name -> (canonical module, attribute, extra lookup sites, work fn).
# A lookup site is (module, attribute); "cli._COMMANDS" names the dispatch
# dict that cli.main indexes, which holds its own references to cmd_*.
LAYERS = {
    "kernels.sturm_count": ("kernels", "sturm_count", (),
                            lambda args, result: {"rows": len(args[0])}),
    "kernels.rk4_lienard": ("kernels", "rk4_lienard", (),
                            lambda args, result: {"steps": args[5]}),
    "eigensolver.lowest_eigenvalues": (
        "eigensolver", "lowest_eigenvalues", (),
        lambda args, result: {"levels": args[1]}),
    "eigensolver.build_operator": ("eigensolver", "build_operator", (), None),
    "eigensolver.verify_spectrum": ("eigensolver", "verify_spectrum", (), None),
    "checks.run_suite": ("checks", "run_suite", (), None),
    "checks.classical": ("checks", "_classical_checks", (), None),
    "checks.potential": ("checks", "_potential_checks", (), None),
    "checks.susy": ("checks", "_susy_checks", (), None),
    "checks.operator": ("checks", "_operator_checks", (), None),
    "checks.eigensolver": ("checks", "_eigensolver_checks", (), None),
    "checks.wavefn": ("checks", "_wavefn_checks", (), None),
    "classical.integrate_lienard": ("classical", "integrate_lienard", (), None),
    "classical.analytic_solution": ("classical", "analytic_solution", (), None),
    "classical.conjugate_momentum": ("classical", "conjugate_momentum", (), None),
    "classical.hamiltonian_classical": ("classical", "hamiltonian_classical",
                                        (), None),
    "quantize.apply_hamiltonian_fd": ("quantize", "apply_hamiltonian_fd", (),
                                      None),
    "susy.spectrum": ("susy", "spectrum", (("eigensolver", "spectrum"),), None),
    "susy.riccati_residual": ("susy", "riccati_residual", (), None),
    "susy.ground_state_energy": ("susy", "ground_state_energy", (), None),
    "wavefn.psi": ("wavefn", "psi", (), None),
    "wavefn.overlap_matrix": ("wavefn", "overlap_matrix", (), None),
    "wavefn.limit_deviation": ("wavefn", "limit_deviation", (), None),
    "specfun.laguerre_assoc": ("specfun", "laguerre_assoc",
                               (("wavefn", "laguerre_assoc"),), None),
    "specfun.log_gamma": ("specfun", "log_gamma", (("wavefn", "log_gamma"),),
                          None),
    "params.derive_params": ("params", "derive_params",
                             (("cli", "derive_params"), ("checks", "derive_params"),
                              ("susy", "derive_params"), ("wavefn", "derive_params")),
                             None),
    "cli.write_output": ("cli", "write_output", (), _write_output_work),
}
for _command in ("classical", "spectrum", "wavefn", "verify", "limit", "sweep"):
    LAYERS[f"cli.cmd_{_command}"] = ("cli", f"cmd_{_command}",
                                     (("cli._COMMANDS", _command),), None)


class Tracer:
    """Records spans of the wrapped layer functions of one process.

    Requests are issued one at a time, so a span opened by a worker thread
    (the `sweep` pool) with nothing open on its own thread attaches to the
    innermost span open on the thread that runs the request.
    """

    def __init__(self, package, on_return=None):
        self.spans = []
        self.request_id = 0
        self.missing_sites = []
        self._package = package
        self._on_return = on_return or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack = []
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, request_id):
        self.request_id = request_id
        self._request_stack = self._stack()

    def _wrap(self, name, fn, work):
        on_return = self._on_return.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._request_stack[-1] if self._request_stack else 0)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, self.request_id, name,
                                       start, end, True, {}))
                raise
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.request_id, name, start,
                                   end, False, work(args, result) if work else {}))
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _namespace(self, site):
        if site == "cli._COMMANDS":
            return getattr(self._package, "cli")._COMMANDS
        return vars(getattr(self._package, site))

    def install(self):
        """Replace every lookup site by one wrapper per layer function."""
        self.missing_sites = []
        for name, (module, attr, extra_sites, work) in LAYERS.items():
            home = self._namespace(module)
            if attr not in home:
                self.missing_sites.append(f"{module}.{attr}")
                continue
            original = home[attr]
            wrapper = self._wrap(name, original, work)
            for site, key in ((module, attr),) + extra_sites:
                namespace = self._namespace(site)
                if namespace.get(key) is not original:
                    self.missing_sites.append(f"{site}[{key!r}]")
                    continue
                self._patched.append((namespace, key, original))
                namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans):
    """Per-name totals: calls, errors, busy_s, self_s and summed work counts.

    Self time is a span's duration minus the union of its children's
    intervals, so overlapping children from pool threads are not counted
    twice.
    """
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append((span.start, span.end))
    totals = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "errors": 0,
                                              "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["errors"] += span.error
        entry["busy_s"] += span.duration
        entry["self_s"] += span.duration - _union_length(
            children.get(span.span_id, ()), span.start, span.end)
        for key, value in span.work.items():
            entry[key] = entry.get(key, 0) + value
    return totals


def sturm_calls_under(spans, parent_name):
    """Sturm-count calls made directly by spans named parent_name."""
    parents = {s.span_id for s in spans if s.name == parent_name}
    return sum(1 for s in spans
               if s.name == "kernels.sturm_count" and s.parent_id in parents)
