"""Host-time spans around the program's public entry points.

The benchmark measures layers from outside the program.  :func:`traced`
replaces every method in :data:`ENTRY_POINTS` with a wrapper that
records a ``time.perf_counter`` span (name, start, end, parent) and a
few counts computed from the call's arguments, and puts each original
back when the block exits.  Spans stay in memory until
:func:`write_spans` writes them out.

A span's *self time* is its duration minus the durations of its child
spans.  Calls are strictly nested (the program is single-threaded), so
the self times of all spans under a root add up to the root's duration.
The benchmark opens two roots per unit of work, ``bench.setup`` and
``bench.run``; host time that no wrapper covers stays with the
``bench`` layer.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter

#: Layers in report order; a span's layer is its name up to the first dot.
LAYERS = (
    "bench", "collision", "xgyro", "cgyro", "vmpi", "check", "obs",
    "service", "campaign",
)

FIG2, STEADY, SERVICE = "fig2_cold", "xgyro_nl03c_steady", "service_chaos_small"


class SpanRecorder:
    """Spans and counts of one traced unit of work."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in opening order
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.stack: List[int] = []
        #: id(propagator) -> (propagator, distinct (nu, mode) pairs it
        #: inverted); holding the propagator keeps its id from being reused
        self.distinct: Dict[int, Tuple[object, set]] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around the block (used for the benchmark's roots)."""
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        try:
            yield
        finally:
            span[2] = _clock()
            self.stack.pop()


# -- counts taken from the wrapped calls' arguments -----------------------

def _count_build(rec, prop, ic_indices, n_indices):
    n_ic, n_modes = len(ic_indices), len(n_indices)
    rec.count("collision.inverses", n_ic * n_modes)
    rec.count("collision.flops", prop.build_flops(n_ic, n_modes))
    # the propagator inverts I - dt*nu(ic)*C_n, so one inverse per
    # distinct (nu, mode) pair would do
    profile = prop.operator.nu_profile()
    pairs = rec.distinct.setdefault(id(prop), (prop, set()))[1]
    pairs.update((float(profile[ic]), int(n)) for ic in ic_indices for n in n_indices)


def _count_shared_apply(rec, scheme):
    from repro.collision.cmat import apply_flops

    first = scheme.members[0]
    k = len(scheme.members)
    rec.count("xgyro.coll.flops", sum(
        k * apply_flops(s.n_ic, first.decomp.nt_loc, first.dims.nv)
        for shards in scheme.shards.values()
        for s in shards
    ))


def _count_collective(rec, world, kind, ranks, nbytes, **_):
    rec.count("vmpi.collectives")
    rec.count("vmpi.bytes", int(nbytes) * len(ranks))


def _counter(key: str) -> Callable:
    def hook(rec, *args, **kwargs):
        rec.count(key)
    return hook


COLLECTIVES = (
    "barrier", "allreduce", "iallreduce", "alltoall", "ialltoall", "allgather",
    "bcast", "reduce", "gather", "scatter", "reduce_scatter", "scan", "sendrecv",
)

#: (module, class, methods, span name, count hook run after each call)
ENTRY_POINTS = (
    ("repro.collision.cmat", "CmatPropagator", ("build",), "collision.build", _count_build),
    ("repro.xgyro", "XgyroEnsemble", ("__init__",), "xgyro.setup", None),
    ("repro.xgyro.shared_cmat", "SharedCmatScheme", ("ensemble_collision_step",),
     "xgyro.coll", _count_shared_apply),
    ("repro.cgyro.solver", "CgyroSimulation", ("__init__",), "cgyro.setup", None),
    ("repro.cgyro.solver", "CgyroSimulation", ("streaming_phase",), "cgyro.str", None),
    ("repro.cgyro.solver", "CgyroSimulation", ("nonlinear_phase",), "cgyro.nl", None),
    ("repro.cgyro.solver", "CgyroSimulation", ("diagnostics",), "cgyro.diag", None),
    ("repro.cgyro.collision_scheme", "PrivateCollisionScheme", ("step",), "cgyro.coll", None),
    ("repro.vmpi.communicator", "Communicator", COLLECTIVES, "vmpi.collective", None),
    ("repro.vmpi.world", "VirtualWorld", ("charge_collective", "post_collective"),
     "vmpi.charge", _count_collective),
    ("repro.vmpi.world", "VirtualWorld", ("charge_compute",), "vmpi.charge",
     _counter("vmpi.compute_charges")),
    ("repro.check.checker", "CollectiveChecker", ("post", "nb_post"), "check.post", None),
    ("repro.check.checker", "CollectiveChecker",
     ("lockstep_collective", "lockstep_post", "lockstep_wait"), "check.lockstep", None),
    ("repro.check.checker", "CollectiveChecker", ("observe_event",), "check.observe", None),
    ("repro.obs.span", "SpanTracer", ("begin", "record"), "obs.span", _counter("obs.spans")),
    ("repro.obs.span", "SpanTracer", ("end",), "obs.span", None),
    ("repro.obs.monitor", "ServiceMonitor", ("advance", "finish"), "obs.monitor", None),
    ("repro.service.loop", "OnlineService", ("run",), "service.run", None),
    ("repro.service.journal", "ServiceJournal", ("append",), "service.journal", None),
    ("repro.campaign.runner", "CampaignRunner", ("dispatch",), "campaign.dispatch", None),
)


def entry_points() -> Iterator[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, hook)`` for every wrapped method."""
    for module, cls_name, methods, name, hook in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in methods:
            yield cls, attr, name, hook


def _wrapper(rec: SpanRecorder, orig: Callable, name: str, hook) -> Callable:
    spans, stack = rec.spans, rec.stack

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = _clock()
        try:
            result = orig(*args, **kwargs)
        finally:
            span[2] = _clock()
            stack.pop()
        if hook is not None:
            hook(rec, *args, **kwargs)
        return result

    return wrapper


@contextmanager
def traced() -> Iterator[SpanRecorder]:
    """Install the wrappers for the block; the originals return on exit."""
    rec = SpanRecorder()
    installed = []
    try:
        for cls, attr, name, hook in entry_points():
            orig = cls.__dict__[attr]
            setattr(cls, attr, _wrapper(rec, orig, name, hook))
            installed.append((cls, attr, orig))
        yield rec
    finally:
        for cls, attr, orig in reversed(installed):
            setattr(cls, attr, orig)


# -- aggregation ----------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def roots_of(spans: List[list]) -> List[int]:
    """Index of each span's root (parents open before their children)."""
    roots: List[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots


def layer_self_times(rec: SpanRecorder, root: Optional[str] = None) -> Dict[str, float]:
    """Self seconds per layer, over every root or only roots named ``root``."""
    out = {layer: 0.0 for layer in LAYERS}
    roots = roots_of(rec.spans)
    for span, own, r in zip(rec.spans, self_times(rec.spans), roots):
        if root is None or rec.spans[r][0] == root:
            layer = layer_of(span[0])
            out[layer] = out.get(layer, 0.0) + own
    return out


def root_seconds(rec: SpanRecorder, root: Optional[str] = None) -> float:
    """Summed duration of the root spans (all, or those named ``root``)."""
    return sum(
        end - start for name, start, end, parent in rec.spans
        if parent < 0 and (root is None or name == root)
    )


def write_spans(rec: SpanRecorder, path: Path) -> Path:
    """One CSV row per span; summing ``self_s`` by ``layer`` gives the
    per-layer self times, and their total is the traced wall time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = rec.spans[0][1] if rec.spans else 0.0
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "name", "layer", "start_s", "end_s", "self_s"])
        for i, ((name, start, end, parent), own) in enumerate(
            zip(rec.spans, self_times(rec.spans))
        ):
            out.writerow([i, parent, name, layer_of(name), f"{start - t0:.9f}",
                          f"{end - t0:.9f}", f"{own:.9f}"])
    return path


# -- per-layer metrics ----------------------------------------------------

_ALL = (FIG2, STEADY, SERVICE)
_SVC_WALL = (("wall_s", SERVICE),)
_STEADY_STEP = (("member_steps_per_s", STEADY),)
_BUILD = (("wall_s", FIG2), ("peak_rss_mb", FIG2), ("setup_s", STEADY), ("peak_rss_mb", STEADY))
_SETUP = (("setup_s", STEADY), ("wall_s", FIG2))

#: name -> (unit, better, (end-to-end metric, workload) pairs it should
#: move).  ``sim.*`` are model outputs: a host-time change must leave
#: them bit-identical (the fingerprint pins them), so they name none.
LAYER_METRICS: Dict[str, Tuple[str, str, Tuple[Tuple[str, str], ...]]] = {
    "collision.build.calls": ("count", "lower", _BUILD),
    "collision.build.s": ("s", "lower", _BUILD),
    "collision.build.inverses": ("count", "lower", _BUILD),
    "collision.build.distinct_inverses": ("count", "lower", _BUILD),
    "collision.build.useful_ratio": ("ratio", "higher", _BUILD),
    "collision.build.flops_computed": ("flop", "lower", _BUILD),
    "xgyro.setup.s": ("s", "lower", _SETUP),
    "xgyro.coll.calls": ("count", "lower", _STEADY_STEP + (("wall_s", FIG2),)),
    "xgyro.coll.s": ("s", "lower", _STEADY_STEP + (("wall_s", FIG2),)),
    "xgyro.coll.flops_computed": ("flop", "lower", _STEADY_STEP),
    "cgyro.setup.s": ("s", "lower", _SETUP),
    "cgyro.str.calls": ("count", "lower", _STEADY_STEP + _SVC_WALL),
    "cgyro.str.s": ("s", "lower", _STEADY_STEP + _SVC_WALL),
    "cgyro.nl.s": ("s", "lower", _STEADY_STEP + _SVC_WALL),
    "cgyro.coll.s": ("s", "lower", (("wall_s", FIG2),) + _SVC_WALL),
    "cgyro.diag.s": ("s", "lower", (("wall_s", FIG2),) + _SVC_WALL),
    "vmpi.collectives": ("count", "lower", _SVC_WALL),
    "vmpi.collective_bytes_computed": ("B", "lower", _SVC_WALL),
    "vmpi.collective.s": ("s", "lower", _SVC_WALL),
    "vmpi.charge.s": ("s", "lower", _SVC_WALL),
    "vmpi.compute_charges": ("count", "lower", _SVC_WALL),
    "check.posts": ("count", "lower", _SVC_WALL),
    "check.s": ("s", "lower", _SVC_WALL),
    "obs.spans": ("count", "lower", _SVC_WALL + (("peak_rss_mb", SERVICE),)),
    "obs.span.s": ("s", "lower", _SVC_WALL),
    "obs.monitor.windows": ("count", "lower", _SVC_WALL),
    "obs.monitor.s": ("s", "lower", _SVC_WALL),
    "service.run.self_s": ("s", "lower", _SVC_WALL),
    "service.journal.appends": ("count", "lower", _SVC_WALL),
    "service.journal.s": ("s", "lower", _SVC_WALL),
    "service.journal.bytes": ("B", "lower", _SVC_WALL + (("peak_rss_mb", SERVICE),)),
    "campaign.dispatches": ("count", "lower", _SVC_WALL),
    "campaign.dispatch.s": ("s", "lower", _SVC_WALL),
    "campaign.cache.hit_ratio": ("ratio", "higher", _SVC_WALL),
    "bench.share": ("ratio", "lower", tuple(("wall_s", w) for w in _ALL)),
    "collision.share": ("ratio", "lower", (("wall_s", FIG2),) + _SVC_WALL),
    "xgyro.share": ("ratio", "lower", _STEADY_STEP + (("wall_s", FIG2),)),
    "cgyro.share": ("ratio", "lower", _STEADY_STEP + _SVC_WALL),
    "vmpi.share": ("ratio", "lower", _SVC_WALL),
    "check.share": ("ratio", "lower", _SVC_WALL),
    "obs.share": ("ratio", "lower", _SVC_WALL),
    "service.share": ("ratio", "lower", _SVC_WALL),
    "campaign.share": ("ratio", "lower", _SVC_WALL),
    "trace.wall_s": ("s", "lower", tuple(("wall_s", w) for w in _ALL)),
    "sim.str_comm_s": ("sim-s", "lower", ()),
    "sim.coll_comm_s": ("sim-s", "lower", ()),
    "sim.nl_comm_s": ("sim-s", "lower", ()),
    "sim.str_compute_s": ("sim-s", "lower", ()),
    "sim.nl_compute_s": ("sim-s", "lower", ()),
    "sim.coll_compute_s": ("sim-s", "lower", ()),
    "sim.step_s": ("sim-s", "lower", ()),
    "sim.fig2_paper_err": ("ratio", "lower", ()),
    "sim.p99_ttr_s": ("sim-s", "lower", ()),
    "sim.served_ratio": ("ratio", "higher", ()),
}

#: Per-layer values the workloads read from the program's objects
#: (everything else comes from the spans); 0 where a workload lacks them.
READ_FROM_OUTPUTS = tuple(
    n for n in LAYER_METRICS if n.startswith("sim.")
) + ("obs.monitor.windows", "service.journal.bytes", "campaign.cache.hit_ratio")


def layer_metrics(rec: SpanRecorder, read: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced unit.

    ``*.s`` metrics are self seconds over the whole unit (set-up and
    run); ``<layer>.share`` is the layer's self time within the
    ``bench.run`` roots over their duration, so set-up work (the cmat
    build of the steady workload) does not dilute a stepping share.
    """
    calls: Dict[str, int] = {}
    secs: Dict[str, float] = {}
    for (name, *_), own in zip(rec.spans, self_times(rec.spans)):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + own
    counts = rec.counts
    inverses = counts.get("collision.inverses", 0)
    distinct = sum(len(pairs) for _, pairs in rec.distinct.values())
    out = {
        "collision.build.calls": calls.get("collision.build", 0),
        "collision.build.s": secs.get("collision.build", 0.0),
        "collision.build.inverses": inverses,
        "collision.build.distinct_inverses": distinct,
        "collision.build.useful_ratio": distinct / inverses if inverses else 0.0,
        "collision.build.flops_computed": counts.get("collision.flops", 0.0),
        "xgyro.setup.s": secs.get("xgyro.setup", 0.0),
        "xgyro.coll.calls": calls.get("xgyro.coll", 0),
        "xgyro.coll.s": secs.get("xgyro.coll", 0.0),
        "xgyro.coll.flops_computed": counts.get("xgyro.coll.flops", 0.0),
        "cgyro.setup.s": secs.get("cgyro.setup", 0.0),
        "cgyro.str.calls": calls.get("cgyro.str", 0),
        "cgyro.str.s": secs.get("cgyro.str", 0.0),
        "cgyro.nl.s": secs.get("cgyro.nl", 0.0),
        "cgyro.coll.s": secs.get("cgyro.coll", 0.0),
        "cgyro.diag.s": secs.get("cgyro.diag", 0.0),
        "vmpi.collectives": counts.get("vmpi.collectives", 0),
        "vmpi.collective_bytes_computed": counts.get("vmpi.bytes", 0),
        "vmpi.collective.s": secs.get("vmpi.collective", 0.0),
        "vmpi.charge.s": secs.get("vmpi.charge", 0.0),
        "vmpi.compute_charges": counts.get("vmpi.compute_charges", 0),
        "check.posts": calls.get("check.post", 0),
        "check.s": sum(v for k, v in secs.items() if layer_of(k) == "check"),
        "obs.spans": counts.get("obs.spans", 0),
        "obs.span.s": secs.get("obs.span", 0.0),
        "obs.monitor.s": secs.get("obs.monitor", 0.0),
        "service.run.self_s": secs.get("service.run", 0.0),
        "service.journal.appends": calls.get("service.journal", 0),
        "service.journal.s": secs.get("service.journal", 0.0),
        "campaign.dispatches": calls.get("campaign.dispatch", 0),
        "campaign.dispatch.s": secs.get("campaign.dispatch", 0.0),
        "trace.wall_s": root_seconds(rec),
    }
    run_wall = root_seconds(rec, "bench.run")
    for layer, own in layer_self_times(rec, "bench.run").items():
        out[f"{layer}.share"] = own / run_wall if run_wall > 0 else 0.0
    for name in READ_FROM_OUTPUTS:
        out[name] = float(read.get(name, 0.0))
    missing = set(LAYER_METRICS) ^ set(out)
    if missing:
        raise KeyError(f"per-layer metrics out of step with LAYER_METRICS: {sorted(missing)}")
    return {name: out[name] for name in LAYER_METRICS}
