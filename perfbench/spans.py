"""Layer tracing placed from outside the program.

`Tracer.install()` wraps the package's public functions and methods listed
in `SPANS` and rebinds every name that refers to the original object in
every loaded ``confluent_dbt`` module and class: ``tdpt.count_roots``,
``isotonic.count_roots``, ``chains.quadrature``, ``ExactPoly.__rmul__``
and the like, not only the defining name.  The program itself is not
edited.

Each thread keeps its own span stack (the suite runner uses a thread
pool), so a span's self time is its duration minus the part covered by
wrapped calls it made on the same thread.  Counters and the distinct
argument sets are per thread too and merged on read.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from fractions import Fraction

# span name -> ((owner, attribute), ...); owner is "module" or "module:Class"
SPANS = {
    "exactalg.poly_mul": (("exactalg:ExactPoly", "__mul__"),),
    "exactalg.poly_divmod": (("exactalg:ExactPoly", "__divmod__"),),
    "exactalg.poly_gcd": (("exactalg:ExactPoly", "gcd"),),
    "exactalg.ratfn_canon": (("exactalg:RationalFn", "__init__"),),
    "exactalg.sturm": (
        ("exactalg", "count_roots"),
        ("exactalg", "isolate_roots"),
        ("exactalg", "refine_root"),
    ),
    # split into poly_eval_exact / poly_eval_float by the argument type
    "exactalg.poly_eval": (("exactalg:ExactPoly", "__call__"),),
    "exactalg.gauged_eval": (
        ("exactalg:TrigGauged", "eval_z"),
        ("exactalg:RadialGauged", "eval_z"),
    ),
    "classical.jacobi": (("classical", "jacobi"),),
    "classical.laguerre": (("classical", "laguerre"),),
    "tdpt.q_poly": (("tdpt", "q_poly"),),
    "tdpt.p_tilde": (("tdpt", "p_tilde"),),
    "tdpt.extended_potential": (("tdpt", "extended_potential"),),
    "tdpt.certify_regularity": (("tdpt", "certify_regularity"),),
    "isotonic.q_poly": (("isotonic", "q_poly"),),
    "isotonic.l_tilde": (("isotonic", "l_tilde"),),
    "isotonic.extended_potential": (("isotonic", "extended_potential"),),
    "isotonic.rootless_certificate": (("isotonic", "rootless_certificate"),),
    "verify.exact_ode_residual": (("verify", "exact_ode_residual"),),
    "verify.quadrature": (("verify", "quadrature"),),
    "verify.gram_matrix": (("verify", "gram_matrix"),),
    "verify.dirichlet_spectrum": (("verify", "dirichlet_spectrum"),),
    "chains.integral_from_anchor": (("chains", "integral_from_anchor"),),
    "chains.hyperconfluent_chain": (("chains", "hyperconfluent_chain"),),
    "chains.matveev_potential": (("chains", "matveev_potential"),),
    # split into top-level and nested calls (cli.determinism nests run_check)
    "reports.run_check": (("reports", "run_check"),),
    "reports.run_suite": (("reports", "run_suite"),),
    "cli.main": (("cli", "main"),),
}

# the workloads on which each span must fire; checked after a traced pass
EXPECTED = {
    "exactalg.poly_mul": ("exact-verify", "exact-build", "numeric"),
    "exactalg.poly_divmod": ("exact-verify", "exact-build", "numeric"),
    "exactalg.poly_gcd": ("exact-verify", "exact-build", "numeric"),
    "exactalg.ratfn_canon": ("exact-verify", "exact-build", "numeric"),
    "exactalg.sturm": ("exact-verify", "exact-build"),
    "exactalg.poly_eval_exact": ("exact-verify", "exact-build"),
    "exactalg.poly_eval_float": ("numeric",),
    "exactalg.gauged_eval": ("numeric",),
    "classical.jacobi": ("exact-verify", "exact-build", "numeric"),
    "classical.laguerre": ("exact-verify", "exact-build", "numeric"),
    "tdpt.q_poly": ("exact-verify", "exact-build", "numeric"),
    "tdpt.p_tilde": ("exact-verify", "exact-build", "numeric"),
    "tdpt.extended_potential": ("exact-verify", "exact-build", "numeric"),
    "tdpt.certify_regularity": ("exact-verify",),
    "isotonic.q_poly": ("exact-verify", "exact-build", "numeric"),
    "isotonic.l_tilde": ("exact-verify", "exact-build", "numeric"),
    "isotonic.extended_potential": ("exact-verify", "exact-build", "numeric"),
    "isotonic.rootless_certificate": ("exact-verify", "exact-build"),
    "verify.exact_ode_residual": ("exact-verify",),
    "verify.quadrature": ("numeric",),
    "verify.gram_matrix": ("numeric",),
    "verify.dirichlet_spectrum": ("numeric",),
    "chains.integral_from_anchor": ("numeric",),
    "chains.hyperconfluent_chain": ("numeric",),
    "chains.matveev_potential": ("numeric",),
    "reports.run_check": ("numeric",),
    "reports.run_suite": ("numeric",),
    "cli.main": ("exact-verify", "exact-build", "numeric"),
}

DISTINCT = ("classical.jacobi", "classical.laguerre", "tdpt.q_poly",
            "isotonic.q_poly")


class _ThreadStats:
    """Everything one thread records; merged by `Tracer.snapshot`."""

    def __init__(self):
        self.stack = []  # time covered by wrapped children, per open span
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> number
        self.args = {}  # name -> set of argument tuples
        self.run_check_depth = 0
        self.cmd_degree = -1
        self.cmd_bits = 0


def _poly_size(poly):
    cs = poly.coeffs
    bits = 0
    for c in cs:
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > bits:
            bits = b
    return len(cs) - 1, bits


class Tracer:
    """Span timers and counters for one pass, installed by `install`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _stats(self) -> _ThreadStats:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadStats()
            with self._lock:
                self._threads.append(st)
            return st

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, after=None, namer=None):
        """Span wrapper.  `after(st, args, kwargs, result)` runs outside the
        span's own time and outside its parent's self time."""
        perf = time.perf_counter
        stats = self._stats

        def wrapper(*args, **kwargs):
            st = stats()
            stack = st.stack
            stack.append(0.0)
            returned = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                dt = perf() - t0
                child = stack.pop()
                key = namer(st, args) if namer is not None else name
                rec = st.spans.get(key)
                if rec is None:
                    rec = st.spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if returned and after is not None:
                    after(st, args, kwargs, result)
                if stack:
                    stack[-1] += perf() - t0
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _make(self, name, fn):
        if name == "exactalg.poly_eval":
            return self._wrap(name, fn, namer=_eval_kind)
        if name == "exactalg.poly_mul":
            return self._wrap(name, fn, after=_track_product)
        if name == "exactalg.ratfn_canon":
            return self._wrap(name, fn, after=_track_canonical)
        if name == "exactalg.poly_gcd":
            return self._wrap(name, fn, after=_count_nontrivial)
        if name in DISTINCT:
            return self._wrap(name, fn, after=_distinct(name))
        if name == "verify.quadrature":
            return self._wrap(name, fn, after=_count_subdivisions)
        if name == "verify.dirichlet_spectrum":
            return self._wrap(name, fn, after=_count_unknowns(fn))
        if name == "reports.run_check":
            inner = self._wrap(name, fn, namer=_run_check_kind)
            stats = self._stats

            def run_check(*args, **kwargs):
                st = stats()
                st.run_check_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    st.run_check_depth -= 1

            run_check.__wrapped__ = fn
            return run_check
        return self._wrap(name, fn)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every span target and rebind all names that refer to it."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "confluent_dbt" or k.startswith("confluent_dbt."))
        ]
        owners = []
        seen = set()
        for mod in modules:
            for value in [mod] + list(vars(mod).values()):
                if (
                    (value is mod or isinstance(value, type))
                    and getattr(value, "__module__", mod.__name__).startswith("confluent_dbt")
                    and id(value) not in seen
                ):
                    seen.add(id(value))
                    owners.append(value)
        for name, targets in SPANS.items():
            count = 0
            for owner_path, attr in targets:
                original = getattr(_resolve(owner_path), attr)
                wrapper = self._make(name, original)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, key, wrapper)
                            count += 1
            if count == 0:
                raise RuntimeError(f"span {name}: no binding found")

    # -- reading ------------------------------------------------------------

    def begin_command(self):
        for st in self._threads:
            st.cmd_degree, st.cmd_bits = -1, 0

    def command_sizes(self) -> tuple:
        """(largest degree, largest coefficient bit length) since
        `begin_command`."""
        with self._lock:
            threads = list(self._threads)
        return (
            max((st.cmd_degree for st in threads), default=-1),
            max((st.cmd_bits for st in threads), default=0),
        )

    def snapshot(self) -> dict:
        """Merged spans, counters and distinct-argument counts."""
        with self._lock:
            threads = list(self._threads)
        spans, counts, args = {}, {}, {}
        for st in threads:
            for k, (c, tot, slf) in st.spans.items():
                rec = spans.setdefault(k, [0, 0.0, 0.0])
                rec[0] += c
                rec[1] += tot
                rec[2] += slf
            for k, v in st.counts.items():
                if k.startswith("max."):
                    counts[k] = max(counts.get(k, v), v)
                else:
                    counts[k] = counts.get(k, 0) + v
            for k, s in st.args.items():
                args.setdefault(k, set()).update(s)
        return {
            "spans": spans,
            "counts": counts,
            "distinct": {k: len(s) for k, s in args.items()},
        }


def _resolve(owner_path: str):
    mod_name, _, cls = owner_path.partition(":")
    mod = sys.modules[f"confluent_dbt.{mod_name}"]
    return getattr(mod, cls) if cls else mod


# -- hooks ----------------------------------------------------------------------


def _eval_kind(st, args):
    z = args[1] if len(args) > 1 else None
    if isinstance(z, (Fraction, int)):
        return "exactalg.poly_eval_exact"
    return "exactalg.poly_eval_float"


def _run_check_kind(st, args):
    if st.run_check_depth > 1:
        return "reports.run_check.nested"
    return "reports.run_check"


def _note_size(st, degree, bits):
    if degree > st.cmd_degree:
        st.cmd_degree = degree
    if bits > st.cmd_bits:
        st.cmd_bits = bits
    c = st.counts
    if degree > c.get("max.degree", -1):
        c["max.degree"] = degree
    if bits > c.get("max.bits", 0):
        c["max.bits"] = bits


def _track_product(st, args, kwargs, result):
    if result is NotImplemented:
        return
    degree = len(result.coeffs) - 1
    if degree > st.cmd_degree or degree > st.counts.get("max.degree", -1):
        _note_size(st, degree, 0)


def _track_canonical(st, args, kwargs, result):
    self = args[0]
    d1, b1 = _poly_size(self.num)
    d2, b2 = _poly_size(self.den)
    _note_size(st, max(d1, d2), max(b1, b2))


def _count_nontrivial(st, args, kwargs, result):
    if result.degree() > 0:
        st.counts["gcd.nontrivial"] = st.counts.get("gcd.nontrivial", 0) + 1


def _count_subdivisions(st, args, kwargs, result):
    st.counts["quadrature.subdivisions"] = (
        st.counts.get("quadrature.subdivisions", 0) + result.subdivisions
    )


def _count_unknowns(fn):
    sig = inspect.signature(fn)

    def after(st, args, kwargs, result):
        grid_n = sig.bind(*args, **kwargs)
        grid_n.apply_defaults()
        n = grid_n.arguments["grid_n"]
        # one solve on grid_n and one on 2 grid_n subintervals (Richardson)
        st.counts["spectrum.unknowns"] = (
            st.counts.get("spectrum.unknowns", 0) + (n - 1) + (2 * n - 1)
        )

    return after


def _distinct(name):
    def after(st, args, kwargs, result):
        st.args.setdefault(name, set()).add(args + tuple(sorted(kwargs.items())))

    return after
