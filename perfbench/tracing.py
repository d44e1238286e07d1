"""Spans and counts around calls into corrgeo's layers, from outside the package.

The program has no tracing of its own yet, so the benchmark wraps the
public functions of each layer module and rebinds every name in every
``corrgeo`` module that refers to the same function object (modules import
each other's functions by name, e.g. ``quotient_space`` holds its own
``qf``, ``og_armijo`` and ``_row_angles``). ``Tracer.restore`` puts every
original back; ``namespace_snapshot`` lets callers check that it did.

Spans are aggregated as they close rather than stored: per function the
call count and self time, and for a few functions every duration
(for percentiles). A function's self time is its duration minus the time
covered by the wrapped calls made beneath it; ``SELF_EXCLUDES`` narrows
that for functions whose self time the layer map defines differently.
"""

import functools
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (module, attribute) of every wrapped function; "Class.method" wraps a
# method on its class. Names missing from the program are skipped, so a
# later refactor that deletes a function reads as zero calls, not a crash.
TARGETS = (
    ("cli", "main"),
    ("pipeline", "load_cohort"),
    ("pipeline", "pairwise_distances"),
    ("pipeline", "write_matrix_csv"),
    ("corr", "factorize"),
    ("frechet", "frechet_mean"),
    ("quotient_space", "align"),
    ("quotient_space", "orbit_log"),
    ("quotient_space", "geodesic_rank_profile"),
    ("quotient_space", "max_full_rank_interval"),
    ("quotient_space", "expm"),
    ("orthogonal_group", "og_armijo"),
    ("product_sphere", "_row_angles"),
    ("product_sphere", "angle_grad_coef"),
    ("product_sphere", "ps_exp"),
    ("product_sphere", "ps_log"),
    ("product_sphere", "ps_frechet_fixed"),
    ("kernels", "qf"),
    ("kernels", "procrustes"),
    ("kernels", "random_orthogonal"),
    ("kernels", "sym_eig"),
    ("kernels", "sylvester_spd"),
    ("kernels", "numerical_rank"),
    ("config", "SolverConfig.with_"),
)

# functions whose durations are kept for percentiles
KEEP_DURATIONS = {"quotient_space.align", "quotient_space.max_full_rank_interval"}

# orbit_log's self time is defined as its time minus its align child, so
# that it measures the log polishes including the kernels they call
SELF_EXCLUDES = {"quotient_space.orbit_log": {"quotient_space.align"}}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def _read_results(tracer, name, result):
    """Counters read off the program's own return values."""
    extra = tracer.extra
    if name == "orthogonal_group.og_armijo":
        extra["og_armijo.failed"] += result[0] == 0.0
    elif name == "quotient_space.align":
        extra["align.starts"] += result.restarts_used
        extra["align.stagnated"] += bool(result.stagnated)
        extra["align.iterations"] += result.iterations
    elif name == "frechet.frechet_mean":
        extra["frechet_mean.outer_iterations"] += result.outer_iterations


def corrgeo_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "corrgeo" or name.startswith("corrgeo."))
    ]


def namespace_snapshot():
    """Identity of every name bound in every corrgeo module and wrapped class."""
    snap = {}
    for mod in corrgeo_modules():
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = id(val)
    config = sys.modules.get("corrgeo.config")
    if config is not None:
        for key, val in vars(config.SolverConfig).items():
            snap[("corrgeo.config.SolverConfig", key)] = id(val)
    return snap


class Tracer:
    """Wraps the layer functions while installed; aggregates spans as they close."""

    def __init__(self):
        self.stats = {}
        self.edges = Counter()  # (parent name, child name) -> calls
        self.extra = Counter()
        self._stack = []  # [name, covered child time, excludes] per open span
        self.installed = set()
        self._saved = []  # (owner, attribute, original) for restore

    def reset(self):
        self.stats = {}
        self.edges = Counter()
        self.extra = Counter()

    def stat(self, name) -> Stat:
        return self.stats.get(name, Stat())

    def _wrap(self, name, fn):
        stack = self._stack
        keep = name in KEEP_DURATIONS
        excludes = SELF_EXCLUDES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, excludes]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if parent is not None and (parent[2] is None or name in parent[2]):
                    parent[1] += dt
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.self_s += dt - frame[1]
                if keep:
                    st.durations.append(dt)
                self.edges[(parent[0] if parent else None, name)] += 1
            _read_results(self, name, result)
            return result

        return traced

    def install(self):
        """Wrap every target and rebind each name that refers to it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = corrgeo_modules()
        for mod_name, attr in TARGETS:
            mod = sys.modules.get(f"corrgeo.{mod_name}")
            if mod is None:
                continue
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    continue
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                self.installed.add(name)
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig)
            self.installed.add(name)
            for owner in modules:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._saved.append((owner, key, orig))
                        setattr(owner, key, wrapped)

    def restore(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []


ARMIJO = "orthogonal_group.og_armijo"
ALIGN = "quotient_space.align"
MEAN = "frechet.frechet_mean"


def round_metrics(tracer, names):
    """The named per-layer metrics of one traced round.

    A name is ``<traced function>.<stat>``: ``calls``, ``self_s``, ``ms_pNN``
    (a percentile of its durations), or one of the derived counts below.
    """
    stat, extra = tracer.stat, tracer.extra
    armijo_calls = stat(ARMIJO).calls
    special = {
        f"{ARMIJO}.trials_per_call": (
            tracer.edges[(ARMIJO, "kernels.qf")] / armijo_calls if armijo_calls else 0.0
        ),
        f"{ARMIJO}.failed": extra["og_armijo.failed"],
        f"{ALIGN}.starts": extra["align.starts"],
        f"{ALIGN}.stagnated": extra["align.stagnated"],
        f"{MEAN}.outer_iterations": extra["frechet_mean.outer_iterations"],
        f"{MEAN}.align_calls": tracer.edges[(MEAN, ALIGN)],
    }
    values = {}
    for name in names:
        fn, _, what = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif what == "calls":
            values[name] = stat(fn).calls
        elif what == "self_s":
            values[name] = stat(fn).self_s
        elif what.startswith("ms_p"):
            d = stat(fn).durations
            values[name] = 1e3 * float(np.percentile(d, int(what[4:]))) if d else 0.0
        else:
            raise ValueError(f"no rule computes per-layer metric {name}")
    return values


def consistency(tracer, workload, outputs, ops):
    """Counters against the program's own reports for one traced round.

    outputs are the round's operation outputs, ops its operation count.
    A wrapper that missed a rebinding shows up here as a count mismatch.
    """
    stat, extra, installed = tracer.stat, tracer.extra, tracer.installed
    problems = []
    if stat(workload.entry).calls != ops:
        problems.append(
            f"trace: {workload.entry} recorded {stat(workload.entry).calls} calls for {ops} operations"
        )
    if {"kernels.procrustes", ALIGN} <= installed and (
        stat("kernels.procrustes").calls != stat(ALIGN).calls
    ):
        problems.append(
            f"trace: {stat('kernels.procrustes').calls} procrustes calls "
            f"for {stat(ALIGN).calls} align calls"
        )
    if ARMIJO in installed and stat(ARMIJO).calls < extra["align.iterations"]:
        problems.append(
            f"trace: {stat(ARMIJO).calls} og_armijo calls below the "
            f"{extra['align.iterations']} iterations align reported"
        )
    reported = sum(o.get("outer_iterations", 0) for o in outputs)
    if extra["frechet_mean.outer_iterations"] != reported:
        problems.append(
            f"trace: {extra['frechet_mean.outer_iterations']} outer iterations traced, "
            f"{reported} reported by frechet_mean"
        )
    return problems


def combine(rounds, units, problems):
    """Counts from the first traced round, times as medians over rounds.

    Counts must repeat exactly in every traced round; a difference is
    appended to problems.
    """
    combined = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if units[name] in ("s", "ms"):
            combined[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                problems.append(f"trace: {name} differs across traced rounds: {values}")
            combined[name] = values[0]
    return combined
