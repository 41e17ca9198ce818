"""The benchmark's three workloads.

Each workload is a unit of work split into a timed set-up (inputs and
the program's objects), a timed run (the public run/step calls) and an
untimed output step.  The output step takes the model fingerprint — a
sha256 over simulated outputs only, so it must be bit-identical on
every host speed — runs the checks that hold for any seed, and reads
the per-layer values that come from the program's objects rather than
from spans.

- ``fig2_cold``: the paper's Figure 2 as a user regenerates it.  Cold:
  every cmat is built inside the run.
- ``xgyro_nl03c_steady``: a warm 4-member nl03c ensemble; only the
  ``step()`` calls are the run, the cmat build is set-up.
- ``service_chaos_small``: the ``kitchen-sink`` chaos schedule served
  by the online service on the small-test grid — many tiny
  collectives, so per-call overhead dominates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled, small_test
from repro.check.checker import CollectiveChecker
from repro.check.invariants import builtin_scenarios
from repro.machine import frontier_like
from repro.obs import ServiceMonitor, Telemetry
from repro.perf import figure2_comparison
from repro.perf.calibrate import PAPER_TARGETS
from repro.service import OnlineService, ServiceJournal, WindowPolicy
from repro.service.traffic import PoissonTraffic, replay
from repro.vmpi.world import VirtualWorld
from repro.xgyro import XgyroEnsemble

from hostbench.tracer import FIG2, SERVICE, STEADY

#: The seed whose inputs are the paper's: dlntdr = 3.0 + 0.1 m.
DEFAULT_SEED = 0

SIM_CATEGORIES = ("str_comm", "coll_comm", "nl_comm", "str_compute", "nl_compute",
                  "coll_compute")


@dataclass
class Outputs:
    """What the untimed output step extracts from one unit."""

    fingerprint: str
    problems: List[str]  # failed seed-independent checks
    member_steps: int  # member time steps the run executed
    read: Dict[str, float]  # per-layer values read from the program's objects


@dataclass(frozen=True)
class Workload:
    """One workload: set-up, run and output step of its unit of work.

    ``setup_repeats`` set-ups are timed per unit (the last one is run);
    a measured run does at least ``min_units`` units.
    """

    name: str
    setup: Callable[[int], object]
    run: Callable[[object], object]
    outputs: Callable[[object, object], Outputs]
    setup_repeats: int
    min_units: int


def fingerprint(obj) -> str:
    """sha256 of a canonical JSON rendering; arrays enter as the sha256
    of their bytes, floats as their shortest exact repr."""

    def encode(o):
        if isinstance(o, np.ndarray):
            arr = np.ascontiguousarray(o)
            return [str(arr.dtype), list(arr.shape),
                    hashlib.sha256(arr.tobytes()).hexdigest()]
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"cannot fingerprint {type(o).__name__}")

    text = json.dumps(obj, sort_keys=True, default=encode)
    return hashlib.sha256(text.encode()).hexdigest()


def gradient_sweep(seed: int, n_members: int):
    """nl03c members whose dlntdr offsets the seed picks (0.1 m at the
    default seed, otherwise 0.1 m jittered by up to 0.05)."""
    offsets = [0.1 * m for m in range(n_members)]
    if seed != DEFAULT_SEED:
        jitter = np.random.default_rng(seed).uniform(-0.05, 0.05, n_members)
        offsets = [o + float(j) for o, j in zip(offsets, jitter)]
    base = nl03c_scaled()
    return [
        base.with_updates(dlntdr=(3.0 + o, 3.0 + o), name=f"nl03c.m{m}")
        for m, o in enumerate(offsets)
    ]


def frontier32():
    return frontier_like(n_nodes=32, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK)


def _row(row) -> dict:
    return {"step": row.step, "time": row.time, "wall_s": row.wall_s,
            "categories": row.categories, "flux": row.flux, "phi2": row.phi2}


def _sim_categories(categories: Dict[str, float], scale: float = 1.0) -> Dict[str, float]:
    return {f"sim.{c}_s": categories.get(c, 0.0) * scale for c in SIM_CATEGORIES}


# -- fig2_cold ------------------------------------------------------------

def _fig2_setup(seed: int):
    return frontier32(), gradient_sweep(seed, 8)


def _fig2_run(state):
    machine, sweep = state
    return figure2_comparison(sweep, machine, measure_steps=1, enforce_memory=True)


def _fig2_outputs(state, res) -> Outputs:
    problems = []
    # the tolerance bench_figure2_headline.py asserts
    for ens, seq in zip(res.xgyro_rows, res.cgyro_rows):
        if not np.allclose(ens.flux, seq.flux, rtol=1e-8, atol=0.0):
            problems.append("XGYRO member flux differs from the sequential baseline's")
    measured = {
        "cgyro_sum_total": res.cgyro_sum.wall_s,
        "xgyro_total": res.xgyro.wall_s,
        "cgyro_sum_str": res.cgyro_sum.str_comm_s,
        "xgyro_str": res.xgyro.str_comm_s,
    }
    paper_err = max(abs(measured[k] / PAPER_TARGETS[k] - 1.0) for k in measured)
    if paper_err > 0.10:
        problems.append(f"Figure 2 is {paper_err:.1%} off the paper (limit 10%)")
    rows = res.cgyro_rows + res.xgyro_rows + [res.cgyro_sum, res.xgyro]
    read = _sim_categories(res.xgyro.categories)
    read["sim.step_s"] = res.xgyro.wall_s / res.steps_per_report
    read["sim.fig2_paper_err"] = paper_err
    return Outputs(
        fingerprint=fingerprint([_row(r) for r in rows]),
        problems=problems,
        member_steps=2 * res.n_members * res.measured_steps,
        read=read,
    )


# -- xgyro_nl03c_steady ---------------------------------------------------

STEADY_MEMBERS = 4
STEADY_STEPS = 1


def _steady_setup(seed: int):
    world = VirtualWorld(frontier32(), enforce_memory=True)
    return XgyroEnsemble(world, gradient_sweep(seed, STEADY_MEMBERS))


def _steady_run(ens) -> List[float]:
    """Step the warm ensemble; returns the members' simulated clocks before."""
    before = [ens.world.elapsed(m.ranks) for m in ens.members]
    for _ in range(STEADY_STEPS):
        ens.step()
    return before


def _steady_outputs(ens, before) -> Outputs:
    world = ens.world
    sim_step_s = max(
        world.elapsed(m.ranks) - b for m, b in zip(ens.members, before)
    ) / STEADY_STEPS
    clocks = world.clock.copy()
    categories = world.category_breakdown(reduce="sum")
    per_step = world.category_breakdown(reduce="max")
    # diagnostics charge simulated time, so they come after the clocks
    diags = [m.diagnostics() for m in ens.members]
    problems = [
        f"member {i} has non-finite flux" for i, (flux, _) in enumerate(diags)
        if not np.all(np.isfinite(flux))
    ]
    read = _sim_categories(per_step, 1.0 / STEADY_STEPS)
    read["sim.step_s"] = sim_step_s
    return Outputs(
        fingerprint=fingerprint({
            "clocks": clocks, "categories": categories,
            "flux": [f for f, _ in diags], "phi2": [p for _, p in diags],
        }),
        problems=problems,
        member_steps=STEADY_MEMBERS * STEADY_STEPS,
        read=read,
    )


# -- service_chaos_small --------------------------------------------------

class FixedCountPoisson(PoissonTraffic):
    """Poisson arrivals conditioned on ``rate * horizon`` arrivals.

    Given their number, Poisson arrival times are uniform order
    statistics.  Fixing the number gives every seed the same offered
    load, so the host work of a run does not swing with the seed.
    """

    def arrival_times(self, horizon_s: float, rng: np.random.Generator) -> List[float]:
        n = round(self.rate_per_s * horizon_s)
        return sorted(float(t) for t in rng.uniform(0.0, horizon_s, n))


def kitchen_sink():
    return next(s for s in builtin_scenarios() if s.name == "kitchen-sink")


def _service_setup(seed: int):
    sc = kitchen_sink()
    traffic = FixedCountPoisson(
        [small_test(), small_test(nu=0.2)], rate_per_s=sc.rate_per_s, seed=seed
    )
    journal = ServiceJournal(snapshot_interval=sc.snapshot_interval)
    telemetry = Telemetry()
    monitor = ServiceMonitor()
    service = OnlineService(
        sc.machine(),
        replay(traffic.generate(sc.horizon_s)),
        window=WindowPolicy(max_hold_s=sc.max_hold_s, min_batch=sc.min_batch),
        min_nodes=sc.min_nodes,
        max_nodes=sc.max_nodes,
        provision_delay_s=sc.provision_delay_s,
        idle_reclaim_s=sc.idle_reclaim_s,
        default_slo_s=sc.default_slo_s,
        journal=journal,
        chaos=sc.plan,
        recovery=sc.recovery,
        spread_domains=sc.spread_domains,
        checker_factory=CollectiveChecker,
        telemetry=telemetry,
        monitor=monitor,
    )
    return sc.horizon_s, service, journal, telemetry, monitor


def _service_run(state):
    horizon_s, service, *_ = state
    return service.run(horizon_s)


def _service_outputs(state, rep) -> Outputs:
    _, _, journal, telemetry, monitor = state
    problems = []
    ids = ([r.request_id for r in rep.served] + [r.request_id for r in rep.rejections]
           + [r.request_id for r in rep.abandoned])
    if len(ids) != rep.offered:
        problems.append(
            f"requests not conserved: offered {rep.offered}, served {rep.n_served}"
            f" + shed {rep.n_shed} + abandoned {rep.n_abandoned}")
    if len(set(ids)) != len(ids):
        problems.append("a request has more than one disposition")
    sim = dict.fromkeys(SIM_CATEGORIES, 0.0)
    for span in telemetry.tracer.spans:
        if span.kind in ("collective", "compute") and span.category in sim:
            sim[span.category] += span.duration
    wal = journal.to_jsonl()
    lookups = rep.cache.get("hits", 0) + rep.cache.get("misses", 0)
    read = _sim_categories(sim)
    read.update({
        "sim.p99_ttr_s": rep.p99_ttr_s,
        "sim.served_ratio": rep.n_served / rep.offered if rep.offered else 0.0,
        "obs.monitor.windows": len(monitor.rollups),
        "service.journal.bytes": len(wal),
        "campaign.cache.hit_ratio": rep.cache.get("hits", 0) / lookups if lookups else 0.0,
    })
    return Outputs(
        fingerprint=fingerprint({"report": rep.to_dict(), "wal": wal}),
        problems=problems,
        member_steps=sum(r.steps for r in rep.served),
        read=read,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(FIG2, _fig2_setup, _fig2_run, _fig2_outputs, setup_repeats=5, min_units=1),
        Workload(STEADY, _steady_setup, _steady_run, _steady_outputs,
                 setup_repeats=1, min_units=3),
        Workload(SERVICE, _service_setup, _service_run, _service_outputs,
                 setup_repeats=5, min_units=3),
    )
}
