"""Outside-in tracing of the ``sinkhorn_nms`` layers.

``Tracer.install`` replaces each traced public function with a wrapper under
every name its callers look it up by: the module globals of each
``sinkhorn_nms`` module that imported it (``pipeline.solve``,
``clustering.greedy_nms``, ``hungarian.linear_sum_assignment``, ...), the
package namespace, and for methods the class attribute
(``ProposalSet.boxes``).  ``restore`` puts every original back.  The library
source is not touched.

While ``active`` is set, each wrapped call records a span (name, start, end,
parent span, op id) in memory and adds to the counts of the current op.  A
span's self time is its duration minus the durations of its direct child
spans; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "sinkhorn_nms"


def _solve_counts(tracer, args, kwargs, result, self_ns):
    S = result
    M, K = S.matrix.shape
    domain = "log" if S.log_domain else "linear"
    tracer.count("sinkhorn.solve.iterations", S.iterations)
    tracer.count("sinkhorn.solve.converged", int(S.converged))
    tracer.count("sinkhorn.solve.log_domain", int(S.log_domain))
    tracer.count(f"sinkhorn.solve.cells.{domain}", S.iterations * M * K)
    tracer.add_ns(f"sinkhorn.solve.self_ns.{domain}", self_ns)


def _grad_unrolled_defer(tracer, args, kwargs, result, self_ns):
    # The iteration count is not part of the gradient's return value; it is
    # recovered after the run by repeating the forward solve untraced.
    tracer.deferred.append((tracer.op, args, kwargs, self_ns))


def _kmeans_counts(tracer, args, kwargs, result, self_ns):
    tracer.count("clustering.kmeans.lloyd_iters", len(result.wcss) - 1)


def _estimate_k_counts(tracer, args, kwargs, result, self_ns):
    tracer.count("clustering.estimate_k.k", int(result))


def _frank_wolfe_counts(tracer, args, kwargs, result, self_ns):
    tracer.count("refine.frank_wolfe.iterations", result.iterations)


def _dumps_counts(tracer, args, kwargs, result, self_ns):
    tracer.count("formats.report_bytes", len(result.encode()))


# (span name, defining module, attribute, hook run on return).  A span is
# named after the layer that defines the function, whichever module calls it.
TARGETS = (
    ("proposals.ProposalSet.boxes", "proposals", "ProposalSet.boxes", None),
    ("proposals.ProposalSet.scores", "proposals", "ProposalSet.scores", None),
    ("proposals.ProposalSet.features", "proposals", "ProposalSet.features", None),
    ("proposals.validate", "proposals", "validate", None),
    ("formats.read_proposal_file", "formats", "read_proposal_file", None),
    ("formats.read_ground_truth", "formats", "read_ground_truth", None),
    ("formats.run_report", "formats", "run_report", None),
    ("formats.write_run_report", "formats", "write_run_report", None),
    ("formats.dumps_canonical", "formats", "dumps_canonical", _dumps_counts),
    ("baselines.greedy_nms", "baselines", "greedy_nms", None),
    ("clustering.estimate_k", "clustering", "estimate_k", _estimate_k_counts),
    ("clustering.init_centroids", "clustering", "init_centroids", None),
    ("clustering.kmeans", "clustering", "kmeans", _kmeans_counts),
    ("cost.build_cost", "cost", "build_cost", None),
    ("cost.kappa", "cost", "kappa", None),
    ("sinkhorn.solve", "sinkhorn", "solve", _solve_counts),
    ("sinkhorn.contraction_rate", "sinkhorn", "contraction_rate", None),
    ("sinkhorn.grad_unrolled", "sinkhorn", "grad_unrolled", _grad_unrolled_defer),
    ("hungarian.hungarian_solve", "hungarian", "hungarian_solve", None),
    ("hungarian.lap", "hungarian", "linear_sum_assignment", None),
    ("hungarian.kl_divergence", "hungarian", "kl_divergence", None),
    ("losses.matching_loss", "losses", "matching_loss", None),
    ("losses.grad_matching_wrt_cost", "losses", "grad_matching_wrt_cost", None),
    ("pipeline.dnms", "pipeline", "dnms", None),
    ("pipeline.aggregate", "pipeline", "aggregate", None),
    ("geometry.quality_score", "geometry", "quality_score", None),
    ("refine.frank_wolfe", "refine", "frank_wolfe", _frank_wolfe_counts),
    ("refine.lmo_entropy", "refine", "lmo_entropy", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Spans and per-op counts of the wrapped calls, kept in memory until ``dump``."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        # (name id, start ns, end ns, parent span index or -1, op id)
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.self_ns: Counter = Counter()
        self.times: Counter = Counter()
        self.op_counts: dict[int, Counter] = defaultdict(Counter)
        self.deferred: list = []
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, value: int) -> None:
        self.op_counts[self.op][key] += value

    def add_ns(self, key: str, ns: int) -> None:
        self.times[key] += ns

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        calls_key = name + ".calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                parent = -1
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1] += dur
                tracer.spans[idx] = (nid, start, end, parent, tracer.op)
                self_ns = dur - frame[1]
                tracer.self_ns[name] += self_ns
                tracer.op_counts[tracer.op][calls_key] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result, self_ns)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for name, module, attr, hook in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            original = getattr(holder, meth, None) if holder is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            if cls_name:
                self._patches.append((holder, meth, original))
                setattr(holder, meth, wrapper)
                continue
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def resolve_deferred(self) -> None:
        """Attribute iterations and cells to ``grad_unrolled`` spans, untraced."""
        from sinkhorn_nms import sinkhorn

        with self.paused():
            for op, args, kwargs, self_ns in self.deferred:
                C, params, marg = (*args, *(kwargs[k] for k in ("C", "params", "marg") if k in kwargs))[:3]
                S = sinkhorn.solve(C, params, marg)
                M, K = S.matrix.shape
                domain = "log" if S.log_domain else "linear"
                self.op_counts[op]["sinkhorn.grad_unrolled.iterations"] += S.iterations
                self.op_counts[op][f"sinkhorn.grad_unrolled.cells.{domain}"] += S.iterations * M * K
                self.times[f"sinkhorn.grad_unrolled.self_ns.{domain}"] += self_ns
        self.deferred.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans if s is not None],
            "op_counts": {str(op): dict(c) for op, c in sorted(self.op_counts.items())},
            "untraced_targets": self.missing,
        }
