"""Per-layer tracing from outside the package: wrappers around public calls.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers, in every ``hopfbax`` module that binds
them (modules import each other's functions by name, so patching only the
defining module would miss most calls).  Nothing under ``src/`` changes.

Every wrapped call adds to its name's call count and self time: the
call's duration minus the part covered by wrapped calls made inside it.
Calls of the hot layers (scalar arithmetic, structure constants, element
and matrix products, coproducts) are only aggregated; every other call is
also kept as a span ``(name, parent index, start, end)`` in memory and
handed to the caller when the pass ends.

The wrappers cost time (each scalar operation pays one), so per-layer
numbers come from a separate traced pass and are never mixed with the
end-to-end timings; run.py reports the cost as ``trace.overhead_share``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import hopfbax.cli  # noqa: F401  (not imported by the package itself)
import hopfbax.regressions  # noqa: F401
from hopfbax import algebra, double, hopf, matrices, scalars, uqsl2

from metrics import LAYER_METRICS

# (owner, attribute, span name) -- owner is a class, a module, or a module's
# name where the package rebinds the submodule's attribute to a function
# (hopfbax.baxterize); "{kind}" in a name is filled with the scalar domain
# of the first argument, "{dim}" with its matrix dimension
TARGETS = [
    (scalars.Scalar, "__mul__", "scalars.mul.{kind}"),
    (scalars.Scalar, "__add__", "scalars.add.{kind}"),
    (scalars.Scalar, "inverse", "scalars.inverse.{kind}"),
    (scalars.ParamScalar, "__mul__", "scalars.param_mul"),
    (algebra.Algebra, "product_basis", "algebra.product_basis"),
    (algebra.AlgebraElement, "__mul__", "algebra.element_mul"),
    (algebra, "tensor_multiply", "algebra.tensor_multiply"),
    (algebra, "embed", "algebra.embed"),
    (hopf, "check_hopf_axioms", "hopf.check_hopf_axioms"),
    (hopf.HopfAlgebra, "delta", "hopf.delta"),
    (hopf.HopfAlgebra, "delta_squared", "hopf.delta_squared"),
    (hopf, "dual", "hopf.dual"),
    (double, "build_double", "double.build_double"),
    (double, "canonical_r", "double.canonical_r"),
    (double.CanonicalR, "tensor", "double.canonical_r"),
    (double, "check_constant_ybe_algebraic",
     "double.check_constant_ybe_algebraic"),
    (double, "check_parametric_ybe_algebraic",
     "double.check_parametric_ybe_algebraic"),
    ("hopfbax.baxterize", "decompose_graded", "baxterize.decompose_graded"),
    ("hopfbax.baxterize", "baxterize", "baxterize.baxterize"),
    ("hopfbax.baxterize", "baxterize_zn", "baxterize.baxterize_zn"),
    ("hopfbax.taft", "build_taft", "taft.build_taft"),
    ("hopfbax.taft", "rep_irreducible", "taft.rep_irreducible"),
    ("hopfbax.taft", "rep_indecomposable", "taft.rep_indecomposable"),
    ("hopfbax.taft", "check_double_multiplicative",
     "taft.check_double_multiplicative"),
    ("hopfbax.taft", "taft_r_matrix", "taft.taft_r_matrix"),
    (matrices.ParametricMatrix, "__matmul__", "matrices.matmul"),
    (matrices.ParametricMatrix, "kron", "matrices.kron"),
    (matrices, "embed_two_site", "matrices.embed_two_site"),
    (matrices, "find_diagonal_gauge", "matrices.find_diagonal_gauge"),
    (matrices.ParametricMatrix, "to_json", "matrices.to_json"),
    (matrices.ParametricMatrix, "from_json", "matrices.from_json"),
    ("hopfbax.ybe", "check_parametric_ybe", "ybe.check_parametric_ybe.dim{dim}"),
    ("hopfbax.ybe", "check_constant_ybe", "ybe.check_constant_ybe"),
    ("hopfbax.ybe", "braid_check", "ybe.braid_check"),
    (uqsl2, "uqsl2_r_matrix", "uqsl2.uqsl2_r_matrix"),
    (uqsl2.WeightedRep, "__init__", "uqsl2.WeightedRep"),
    ("hopfbax.cli", "main", "cli.main"),
]

# aggregated only: these run hundreds of thousands of times per pass
HOT = ("scalars.", "algebra.product_basis", "algebra.element_mul",
       "matrices.matmul", "matrices.kron", "hopf.delta")

class Tracer:
    """Call statistics and spans of one traced pass."""

    def __init__(self):
        self.stats = {}          # span name -> [calls, self_s]
        self.counts = Counter()  # work counts read off call results
        self.spans = []          # [name, parent index, start, end]
        self._children = []      # time covered by wrapped callees, per open call
        self._open = []          # span index of each open non-hot call
        self._seen = {}          # algebra -> product_basis keys seen so far

    # -- recording ---------------------------------------------------------
    def begin(self, name):
        """Open a span; child.py also uses this around each verdict."""
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, parent, time.perf_counter(), None])
        self._children.append(0.0)

    def end(self):
        """Close the innermost span; returns (duration, time in callees)."""
        span = self.spans[self._open.pop()]
        span[3] = time.perf_counter()
        duration = span[3] - span[2]
        inner = self._children.pop()
        if self._children:
            self._children[-1] += duration
        return duration, inner

    def _wrap(self, fn, name, post):
        children, stats = self._children, self.stats
        perf, begin, end = time.perf_counter, self.begin, self.end
        hot = name.startswith(HOT)
        prefix = name.partition("{")[0]
        if "{kind}" in name:
            def key_of(args):
                return prefix + args[0].domain.kind
        elif "{dim}" in name:
            def key_of(args):
                return prefix + str(args[0].dim)
        else:
            key_of = None

        def wrapper(*args, **kwargs):
            key = name if key_of is None else key_of(args)
            if hot:
                children.append(0.0)
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    inner = children.pop()
                    if children:
                        children[-1] += dt
            else:
                begin(key)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt, inner = end()
            rec = stats.get(key)
            if rec is None:
                rec = stats[key] = [0, 0.0]
            rec[0] += 1
            rec[1] += dt - inner
            if post is not None:
                post(key, args, out, dt - inner)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counts read off results ----------------------------------------
    def _product_basis(self, key, args, out, self_s):
        alg, l1, l2 = args
        seen = self._seen.get(alg)
        if seen is None:
            seen = self._seen[alg] = set()
        if (l1, l2) not in seen:
            seen.add((l1, l2))
            self.counts["algebra.product_basis.misses"] += 1
            # a double's product table is filled by straightening f.g
            if isinstance(getattr(alg._product, "__self__", None),
                          double.DoubleAlgebra):
                self.counts["double.straighten_fill_s"] += self_s

    def _count(self, metric, measure):
        """A hook adding measure(result) to a count; "{layer}" in the
        metric name becomes the layer of the wrapped call."""
        def post(key, args, out, self_s):
            layer = key.partition(".")[0]
            self.counts[metric.format(layer=layer)] += measure(out)
        return post

    def _exit_code(self, key, args, out, self_s):
        self.counts[f"cli.exit_code.{out}"] += 1

    # -- installation -------------------------------------------------------
    def install(self):
        residual = self._count("{layer}.residual_terms",
                               lambda r: r.residual_terms)
        posts = {
            "algebra.product_basis": self._product_basis,
            "algebra.tensor_multiply": self._count(
                "algebra.tensor_multiply.out_terms", lambda t: len(t.terms)),
            "matrices.matmul": self._count(
                "matrices.matmul.out_nnz", lambda m: len(m.entries)),
            "cli.main": self._exit_code,
        }
        for name in ("double.check_constant_ybe_algebraic",
                     "double.check_parametric_ybe_algebraic",
                     "ybe.check_parametric_ybe.dim{dim}",
                     "ybe.check_constant_ybe", "ybe.braid_check"):
            posts[name] = residual
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hopfbax" or n.startswith("hopfbax.")]
        for owner, attr, name in TARGETS:
            if isinstance(owner, str):
                owner = sys.modules[owner]
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self._wrap(fn, name, posts.get(name))
            if isinstance(owner, type):
                # rebind aliases too (__rmul__ = __mul__, __radd__ = __add__)
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        setattr(owner, key,
                                staticmethod(wrapper) if static else wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    # -- results --------------------------------------------------------------
    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_share."""
        stats, counts = self.stats, self.counts

        def calls(name):
            return stats.get(name, (0, 0.0))[0]

        def self_s(*names):
            return sum(stats.get(n, (0, 0.0))[1] for n in names)

        out = {}
        for kind in ("cyclotomic", "sqrt_q"):
            ops = [f"scalars.{op}.{kind}" for op in ("mul", "add", "inverse")]
            for op in ("mul", "add", "inverse"):
                out[f"scalars.{op}.calls.{kind}"] = calls(f"scalars.{op}.{kind}")
            out[f"scalars.self_s.{kind}"] = self_s(*ops)
            n = calls(f"scalars.mul.{kind}")
            out[f"scalars.mul.us_per_call.{kind}"] = (
                1e6 * self_s(f"scalars.mul.{kind}") / n if n else 0.0)
        out["scalars.param_mul.calls"] = calls("scalars.param_mul")
        n = calls("algebra.product_basis")
        out["algebra.product_basis.hit_ratio"] = (
            1 - counts["algebra.product_basis.misses"] / n if n else 0.0)
        for dim in (4, 9, 16, 25):
            out[f"ybe.check_parametric_ybe.self_s.dim{dim}"] = self_s(
                f"ybe.check_parametric_ybe.dim{dim}")
        for metric, _ in LAYER_METRICS:
            if metric in out or metric == "trace.overhead_share":
                continue
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls(base)
            elif field == "self_s":
                out[metric] = self_s(base)
            else:
                out[metric] = counts[metric]
        return out
