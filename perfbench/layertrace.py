"""Outside-in layer trace of risolve.

The tracer replaces module attributes from outside the package and puts them
back afterwards; no file of the program changes.  ``from .reduced import
global_min_corrected`` gives every consumer module its own binding, so each
public function is wrapped at every risolve module that binds it.  A name
that a refactor removes is reported as absent instead of failing the run.

Spans record name, start, end, parent and operation.  A span's self time is
its duration minus the durations of the wrapped spans it directly contains.
Model evaluations are counted, not timed: they are too frequent for a span.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "risolve"
SNAP_TOL = 1e-8  # global_min_corrected snaps polished points this close to the box

# (metric prefix, home module, attribute)
SPANS = [
    ("cli.load_config", "cli", "load_config"),
    ("cli.write_trajectory_csv", "cli", "write_trajectory_csv"),
    ("cli.read_trajectory_csv", "cli", "read_trajectory_csv"),
    ("scheme.solve_incremental", "scheme", "solve_incremental"),
    ("reduced.global_min_corrected", "reduced", "global_min_corrected"),
    ("stability.residual_stability", "stability", "residual_stability"),
    ("jump.jump_cost", "jump", "jump_cost"),
    ("jump.viscous_chain", "jump", "viscous_chain"),
    ("jump.dp_chain", "jump", "_dp_chain"),
    ("verify.certify", "verify", "verify_VE"),
    ("verify.certify", "verify", "verify_E"),
    ("verify.balance_residual", "verify", "balance_residual"),
    ("jump.dijkstra", "jump", "dijkstra"),  # scipy's, as bound in jump
]


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Install with ``install()``, run operations, read ``metrics()``, then
    ``uninstall()``.  ``begin_op`` marks the operation later spans belong to."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.absent: list[str] = []
        self._undo: list[tuple] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._polished: list[list] = []  # polish points per open global_min call
        self._op = ""
        self._seen: set = set()
        self._keep: list = []
        self._model_calls = [0, 0]  # scalar calls, batch rows
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._model_calls[:] = [0, 0]

    def begin_op(self, op: str) -> None:
        self._op = op
        self._seen = set()  # repeats count within one command
        self._keep = []

    # -- wrapping ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, time.perf_counter(), 0.0]
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                spans[sid] = (sid, parent, self._op, name, frame[1], end)
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                self.calls[name] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _wrap_bindings(self, name, home, attr, after=None, inner=None, site=None) -> None:
        """Wrap ``home.attr`` in a span at every risolve module that binds it.

        ``inner`` decorates the original inside the span; ``site`` is a pair
        (module name, counter) that counts the calls made through that
        module's binding.
        """
        mod = sys.modules.get(f"{PACKAGE}.{home}")
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            self.absent.append(f"{home}.{attr}")
            return
        target = inner(orig) if inner is not None else orig
        for m in _modules():
            if m.__dict__.get(attr) is orig:
                hook = after
                if site is not None and m.__name__ == site[0]:
                    hook = self._count_site(site[1], after)
                self._set(m, attr, self._span(name, target, hook))

    def _count_site(self, counter, after):
        def hook(result, args, kwargs):
            self.counts[counter] += 1
            if after is not None:
                after(result, args, kwargs)
        return hook

    # -- per-layer hooks --------------------------------------------------

    def _after_solve(self, result, args, kwargs) -> None:
        self.counts["scheme.steps"] += len(result.times) - 1

    def _gmc(self, fn):
        polished = self._polished

        def inner(*args, **kwargs):
            polished.append([])
            try:
                result = fn(*args, **kwargs)
            finally:
                points = polished.pop()
            argmin = np.atleast_1d(np.asarray(result.argmin, float))
            if any(p.shape == argmin.shape and np.max(np.abs(p - argmin)) <= SNAP_TOL
                   for p in points):
                self.counts["reduced.polish_won"] += 1
            return result

        return inner

    def _after_polish(self, result, args, kwargs) -> None:
        self.counts["reduced.polish_nfev"] += int(getattr(result, "nfev", 0))
        if self._polished:
            self._polished[-1].append(np.atleast_1d(np.asarray(result.x, float)))

    def _after_residual(self, result, args, kwargs) -> None:
        problem = args[0] if args else kwargs.get("problem")
        t = args[1] if len(args) > 1 else kwargs.get("t")
        z = args[2] if len(args) > 2 else kwargs.get("z")
        key = (id(problem), float(t), np.atleast_1d(np.asarray(z, float)).tobytes())
        if key in self._seen:
            self.counts["stability.repeat_calls"] += 1
        self._seen.add(key)
        self._keep.append(problem)  # keeps ids unique within the command

    def _after_dijkstra(self, result, args, kwargs) -> None:
        graph = args[0] if args else kwargs.get("csgraph")
        self.counts["jump.dp_edges"] += int(getattr(graph, "nnz", 0))

    def _counting(self, fn, rows):
        """Count calls (or batch rows) of a model function; every call counts,
        also one that a correction makes to d."""
        if fn is None or getattr(fn, "_perfbench_counted", False):
            return fn
        calls = self._model_calls
        if rows:
            def counted(t_or_z, pts):
                calls[1] += len(pts)
                return fn(t_or_z, pts)
        else:
            def counted(*args):
                calls[0] += 1
                return fn(*args)
        counted._perfbench_counted = True
        return counted

    def _install_models(self) -> None:
        core = sys.modules.get(f"{PACKAGE}.core")
        cls = getattr(core, "RisProblem", None)
        orig = getattr(cls, "with_correction", None)
        if orig is None:
            self.absent.append("core.RisProblem.with_correction")
            return
        counting = self._counting

        def with_correction(problem, spec):
            out = orig(problem, spec)
            changes = {}
            for attr, rows in (("energy", False), ("dissipation", False),
                               ("correction", False), ("solve_u", False),
                               ("reduced_vec", True), ("dissipation_vec", True)):
                fn = getattr(out, attr, None)
                wrapped = counting(fn, rows)
                if wrapped is not fn:
                    changes[attr] = wrapped
            return dataclasses.replace(out, **changes) if changes else out

        self._set(cls, "with_correction", with_correction)

    def _install_polish(self) -> None:
        reduced = sys.modules.get(f"{PACKAGE}.reduced")
        real = getattr(reduced, "optimize", None)
        if real is None:
            self.absent.append("reduced.optimize")
            return

        class Proxy:
            def __getattr__(self, attr):
                return getattr(real, attr)

        proxy = Proxy()
        for attr in ("minimize", "minimize_scalar"):
            fn = getattr(real, attr, None)
            if fn is None:
                self.absent.append(f"reduced.optimize.{attr}")
                continue
            setattr(proxy, attr, self._span("reduced.polish", fn, self._after_polish))
        self._set(reduced, "optimize", proxy)

    def install(self) -> None:
        self.absent = []
        extras = {
            "scheme.solve_incremental": {"after": self._after_solve},
            "reduced.global_min_corrected": {"inner": self._gmc},
            "stability.residual_stability": {
                "after": self._after_residual, "site": (f"{PACKAGE}.verify", "verify.probes")},
            "jump.dijkstra": {"after": self._after_dijkstra},
        }
        for name, home, attr in SPANS:
            self._wrap_bindings(name, home, attr, **extras.get(name, {}))
        self._install_polish()
        self._install_models()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals since the last ``reset``, named as in BENCHMARK.json
        (which adds ``trace.overhead_pct``, measured by the caller)."""
        t, s, c, n = self.total, self.self_time, self.calls, self.counts
        load_calls = c["cli.load_config"]
        return {
            "cli.load_config_s": t["cli.load_config"] / load_calls if load_calls else 0.0,
            "cli.write_trajectory_csv_s": t["cli.write_trajectory_csv"],
            "cli.read_trajectory_csv_s": t["cli.read_trajectory_csv"],
            "scheme.solve_incremental_s": t["scheme.solve_incremental"],
            "scheme.steps": n["scheme.steps"],
            "reduced.global_min_corrected_calls": c["reduced.global_min_corrected"],
            "reduced.global_min_corrected_self_s": s["reduced.global_min_corrected"],
            "reduced.polish_calls": c["reduced.polish"],
            "reduced.polish_nfev": n["reduced.polish_nfev"],
            "reduced.polish_s": t["reduced.polish"],
            "reduced.polish_won": n["reduced.polish_won"],
            "stability.residual_stability_calls": c["stability.residual_stability"],
            "stability.residual_stability_s": t["stability.residual_stability"],
            "stability.repeat_calls": n["stability.repeat_calls"],
            "jump.jump_cost_calls": c["jump.jump_cost"],
            "jump.jump_cost_s": t["jump.jump_cost"],
            "jump.viscous_chain_s": t["jump.viscous_chain"],
            "jump.dp_chain_calls": c["jump.dp_chain"],
            "jump.dp_chain_s": t["jump.dp_chain"],
            "jump.dp_edges": n["jump.dp_edges"],
            "verify.certify_self_s": s["verify.certify"],
            "verify.balance_residual_s": t["verify.balance_residual"],
            "verify.probes": n["verify.probes"],
            "models.scalar_calls": self._model_calls[0],
            "models.batch_points": self._model_calls[1],
        }
