"""Steady-state analytical engine: throughput from the plan, not the loop.

Stage three of the staged simulator pipeline.  For the loop kernels the
corpus covers, steady-state cycles/iteration is determined by a small
set of per-iteration recurrences the :class:`~repro.simulator.plan.
UopPlan` already tabulates — the OSACA observation (Laukemann et al.,
arXiv:1910.00214) the source paper's in-core model builds on.  This
module derives that bound analytically and *certifies* it against a
short probe of the cycle-accurate engine:

1. :func:`analytical_bound` — per-iteration lower bound as the max of
   the frontend, retire, port-pressure (exact fractional minimax over
   the plan's pre-scaled occupancies), divider, special-op,
   taken-branch, and loop-carried-dependency terms.  Every term is a
   true lower bound on the cycle engine's steady-state slope.
2. :func:`probe` — a short run of the cycle-accurate
   :class:`~repro.simulator.engine.CycleEngine` itself, watched at
   every iteration boundary by the convergence detectors, with a
   **limit-cycle certificate**: a period ``p`` is
   accepted only when the engine's entire live state — register /
   memory / divider / branch ready clocks, port busy tails, the gap
   lists the scheduler actually consults, the frontend clock, and the
   reorder buffer (by content, or by a proven "backpressure can never
   bind" argument) — recurs shifted by exactly one period's worth of
   cycles.  The engine is deterministic and time-shift invariant, so
   a recurring state proves the whole future trajectory repeats.
   Matching retire deltas alone is *not* enough: kernels exist whose
   delta pattern repeats perfectly for dozens of iterations while
   hidden state (frontend lag against the ROB, scheduler-window gap
   backlog) still drifts toward a later regime change, and any
   finite pattern-repeat heuristic would certify them wrongly.
3. The **confidence predicate**: the probe certified a limit cycle
   *and* its slope is explained by the analytical bound (within
   :data:`DEFAULT_AGREEMENT_MARGIN` above it; never materially below —
   the bound is provably a lower bound, so "below" means a modeling
   bug and forces the fallback).

When the predicate holds, the fast path answers by *extrapolating* the
probed history along its limit cycle to the exact ``(warmup,
iterations)`` window a full run would measure — the answer is the
engine's own number, obtained after ~15 iterations instead of ~150.
Otherwise the same run simply continues to the end of that window and
the answer is read off it: there is no second, from-scratch
simulation.  Divergence safety is enforced empirically by the
corpus-wide and fuzz differential suites
(``tests/test_fastpath_differential.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .engine import CycleEngine, _gap_end
from .plan import UopPlan

#: how many iterations the probe may spend before giving up on
#: periodicity; past this, the kernel is transient-dominated and the
#: full engine is the honest answer
DEFAULT_MAX_PROBE_ITERATIONS = 96
#: largest limit-cycle period the probe searches for
DEFAULT_MAX_PERIOD = 8
#: per-delta relative tolerance for "exactly repeats" (the deltas come
#: from identical float expressions shifted by a constant, so the noise
#: floor is accumulation error, ~1e-12 relative)
DEFAULT_DELTA_RTOL = 1e-9
#: earliest iteration count at which convergence may be declared
DEFAULT_MIN_PROBE_ITERATIONS = 8
#: probe slope may exceed the analytical bound by at most this fraction
#: and still count as "explained" (greedy-vs-LP port binding lives in
#: this gap)
DEFAULT_AGREEMENT_MARGIN = 0.25
#: earliest iteration at which the stable (tier-two) detector may fire
DEFAULT_STABLE_FROM = 16
#: averaging windows for the stable detector: quasi-periodic schedules
#: whose period divides a width average out exactly (8 covers periods
#: 1/2/4/8, 12 covers 3/6/12); the wide late windows (usable once the
#: history is long enough) resolve the slow port-rotation cycles
#: (periods 16+) that the early windows keep wobbling over
DEFAULT_STABLE_WINDOWS = (8, 12, 16, 24)
#: consecutive window-averaged slopes must agree to this relative
#: tolerance for the stable detector — tight enough that a schedule
#: still drifting between regimes keeps wobbling above it
DEFAULT_STABLE_RTOL = 2e-3
#: after the stable detector fires, the probe keeps running this many
#: extra iterations and only accepts if the slope over the extension
#: still agrees — transient plateaus (false stables) break here
DEFAULT_STABLE_VERIFY = 12
#: agreement tolerance for the verify extension (looser than
#: ``DEFAULT_STABLE_RTOL``: the extension window is phase-unaligned
#: with the limit cycle, so some wobble is expected)
DEFAULT_STABLE_VERIFY_RTOL = 1e-2
#: the certificate detector (snapshots, fragility/consultation
#: witnesses, span tracking) only runs through this many iterations:
#: real limit cycles certify within ~20 or not at all, and the
#: bookkeeping is pure overhead on the long simulated tail
DEFAULT_CERTIFY_UNTIL = 28
#: above this many distinct candidate-port sets the subset enumeration
#: falls back to the LP (never reached by real machine models)
_MAX_DISTINCT_SETS = 12


@dataclass(frozen=True)
class AnalyticalBound:
    """Per-iteration steady-state lower bound and its components."""

    frontend: float
    retire: float
    ports: float
    divider: float
    special: float
    branch: float
    lcd: float

    @property
    def bound(self) -> float:
        return max(
            self.frontend, self.retire, self.ports, self.divider,
            self.special, self.branch, self.lcd,
        )

    @property
    def bottleneck(self) -> str:
        terms = {
            "frontend": self.frontend, "retire": self.retire,
            "ports": self.ports, "divider": self.divider,
            "special": self.special, "branch": self.branch, "lcd": self.lcd,
        }
        return max(terms, key=lambda k: terms[k])


@dataclass(frozen=True)
class ProbeOutcome:
    """Result of the limit-cycle probe.

    ``history[i]`` is the retire time of the last instruction of
    iteration ``i - 1`` (``history[0]`` is 0.0), so ``history`` has
    ``iterations + 1`` entries and consecutive differences are the
    per-iteration retire deltas the detectors work on.  ``certified``
    distinguishes the two convergence tiers: a state-recurrence
    certificate (exact — the future trajectory provably repeats) from
    the stable slope heuristic (approximate — window-averaged slopes
    agreed, but the schedule may still drift a little).
    """

    slope: float
    iterations: int
    converged: bool
    certified: bool
    period: int
    history: tuple[float, ...]

    def extrapolate(self, i: int) -> float:
        """Retire time after ``i`` iterations, via the limit cycle.

        Exact for ``i`` within the probed range.  Beyond it, a
        certified probe replays the detected period (the schedule is
        in its limit cycle, so the continuation is the engine's own
        trajectory); a stable probe continues linearly at the
        converged slope.
        """
        h = self.history
        if i < len(h):
            return h[i]
        if not self.converged:
            raise ValueError("cannot extrapolate an unconverged probe")
        c = len(h) - 1
        if not self.certified:
            return h[c] + (i - c) * self.slope
        p = self.period
        per_period = h[c] - h[c - p]
        k, r = divmod(i - c, p)
        return h[c] + k * per_period + (h[c - p + r] - h[c - p])


@dataclass(frozen=True)
class SteadyStateResult:
    """The analytical engine's answer plus its certification trail."""

    #: the fast-path measurement: the probed history extrapolated to
    #: the full run's (warmup, iterations) window, overhead applied —
    #: the same quantity :meth:`CycleEngine.run` reports
    cycles_per_iteration: float
    #: limit-cycle slope (cycles per iteration, unscaled)
    slope: float
    probe_iterations: int
    #: detected limit-cycle period in iterations (0 when the stable
    #: heuristic converged rather than the certificate)
    period: int
    converged: bool
    #: the state-recurrence certificate held (answer is exact)
    certified: bool
    #: the confidence predicate: safe to answer without the full engine
    confident: bool
    #: "certified" | "stable" | "simulated" | "analytical-mismatch" |
    #: "empty"
    reason: str
    bound: AnalyticalBound
    #: retire time at the end of the measurement window — the quantity
    #: :meth:`CycleEngine.run` reports as ``total_cycles`` (extrapolated
    #: along the limit cycle for the analytical tiers)
    total_cycles: float = 0.0


# ---------------------------------------------------------------------------
# analytical terms
# ---------------------------------------------------------------------------


def port_bound(uops: list[tuple[tuple, float]]) -> float:
    """Exact fractional minimax port load for ``(ports, occupancy)`` µops.

    By the Gale–Hoffman feasibility condition for the bipartite
    µop→port flow, the optimal fractional makespan equals the maximum
    *density* ``dur(S) / |S|`` over port subsets ``S``, where
    ``dur(S)`` sums the µops whose candidate ports all lie in ``S`` —
    and it suffices to scan subsets that are unions of candidate sets
    actually present.  That makes the term exact (same optimum as
    :func:`repro.analysis.portbinding.assign_ports_optimal`'s LP) at a
    fraction of the cost, which matters because the fast path computes
    it per kernel.  Monotone in its input: adding a µop (or widening
    one's occupancy) can never decrease the optimum.
    """
    work = [(p, d) for p, d in uops if d > 0 and p]
    if not work:
        return 0.0
    ports = sorted({p for cand, _ in work for p in cand})
    bit_of = {p: 1 << k for k, p in enumerate(ports)}

    dur_of_mask: dict[int, float] = {}
    for cand, dur in work:
        mask = 0
        for p in cand:
            mask |= bit_of[p]
        dur_of_mask[mask] = dur_of_mask.get(mask, 0.0) + dur
    if len(dur_of_mask) > _MAX_DISTINCT_SETS:  # pragma: no cover
        return _port_bound_lp(work)

    unions = {0}
    for mask in dur_of_mask:
        unions |= {u | mask for u in unions}
    unions.discard(0)

    best = 0.0
    for u in unions:
        total = 0.0
        for mask, dur in dur_of_mask.items():
            if mask & ~u == 0:
                total += dur
        density = total / u.bit_count()
        if density > best:
            best = density
    return best


def _port_bound_lp(work: list[tuple[tuple, float]]) -> float:
    """LP formulation of :func:`port_bound` (reference / fallback)."""
    ports = sorted({p for cand, _ in work for p in cand})
    port_index = {p: k for k, p in enumerate(ports)}

    import numpy as np
    from scipy.optimize import linprog

    var_of: list[tuple[int, int]] = []
    offsets: list[list[int]] = []
    for u_id, (cand, _) in enumerate(work):
        offs = []
        for p in cand:
            offs.append(len(var_of))
            var_of.append((u_id, port_index[p]))
        offsets.append(offs)
    n_vars = len(var_of) + 1  # + T

    c = np.zeros(n_vars)
    c[-1] = 1.0
    a_eq = np.zeros((len(work), n_vars))
    b_eq = np.zeros(len(work))
    for u_id, (_, dur) in enumerate(work):
        for v in offsets[u_id]:
            a_eq[u_id, v] = 1.0
        b_eq[u_id] = dur
    a_ub = np.zeros((len(ports), n_vars))
    for v, (_, p_id) in enumerate(var_of):
        a_ub[p_id, v] = 1.0
    a_ub[:, -1] = -1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(len(ports)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n_vars,
        method="highs",
    )
    if not res.success:  # pragma: no cover - defensive
        # equal-split heuristic: not optimal but monotone too
        totals: dict[str, float] = {}
        for cand, dur in work:
            share = dur / len(cand)
            for p in cand:
                totals[p] = totals.get(p, 0.0) + share
        return max(totals.values())
    return float(res.x[-1])


def loop_carried_bound(plan: UopPlan) -> float:
    """Heaviest cross-iteration dependency cycle, in engine semantics.

    Mirrors :mod:`repro.analysis.depgraph`'s LCD but over the *plan's*
    tables: reads/writes are post-renaming (zero idioms and SVE merge
    reads already dropped), edge weight is the producer's effective
    latency plus load-to-use latency — exactly the recurrence the cycle
    engine's ``reg_ready``/``mem_ready`` updates realize.  Loop-variant
    memory keys alias only within an iteration (separate namespace), so
    streaming stores never chain across iterations.
    """
    n = plan.n_body
    if n == 0:
        return 0.0
    lat = [
        plan.eff_latency[j]
        + (plan.load_lat[j] if plan.load_lat[j] is not None else 0.0)
        for j in range(n)
    ]

    # resource namespaces: ("r", root) registers, ("m", key) iteration-
    # invariant memory keys, ("mv", key) loop-variant keys (never carried)
    final_writer: dict[tuple, int] = {}
    for i in range(n):
        for root in plan.writes[i]:
            final_writer[("r", root)] = i
        for key, variant in plan.mem_writes_of[i]:
            if not variant:
                final_writer[("m", key)] = i

    edges_out: list[list[int]] = [[] for _ in range(n)]
    carried: set[tuple[int, int]] = set()
    last: dict[tuple, int] = {}
    for j in range(n):
        resources = [("r", root) for root in plan.reads[j]]
        resources += [
            ("mv" if variant else "m", key)
            for key, variant in plan.mem_reads_of[j]
        ]
        for res in resources:
            if res in last:
                edges_out[last[res]].append(j)
            elif res[0] != "mv":
                f = final_writer.get(res)
                if f is not None and f >= j:
                    carried.add((f, j))
        for root in plan.writes[j]:
            last[("r", root)] = j
        for key, variant in plan.mem_writes_of[j]:
            last[("mv" if variant else "m", key)] = j

    best = 0.0
    neg_inf = float("-inf")
    for f, j in carried:
        # longest intra-iteration path consumer j -> producer f; intra
        # edges always point forward in program order, so one pass in
        # index order is a full DAG relaxation
        dist = [neg_inf] * n
        dist[j] = 0.0
        for node in range(j, f + 1):
            d = dist[node]
            if d == neg_inf:
                continue
            w = d + lat[node]
            for k in edges_out[node]:
                if w > dist[k]:
                    dist[k] = w
        if dist[f] != neg_inf:
            cycle = dist[f] + lat[f]
            if cycle > best:
                best = cycle
    return best


def analytical_bound(plan: UopPlan) -> AnalyticalBound:
    """Per-iteration steady-state lower bound from the plan's tables.

    Every term mirrors one serialized resource of the cycle engine:
    frontend dispatch slots, in-order retirement, port occupancy
    (pre-scaled, fractional-optimal binding), the non-pipelined
    divider, per-mnemonic special-op serialization, the taken-branch
    interval, and the loop-carried dependency recurrence.
    """
    special_by_mnemonic: dict[str, float] = {}
    for j in range(plan.n_body):
        t = plan.special_of[j]
        if t is not None:
            m = plan.mnemonic_of[j]
            special_by_mnemonic[m] = special_by_mnemonic.get(m, 0.0) + t
    uops = [
        (ports, dur)
        for per_instr in plan.uop_plans
        for ports, _cycles, dur in per_instr
    ]
    return AnalyticalBound(
        frontend=plan.n_slots * plan.dispatch_step,
        retire=plan.n_body * plan.retire_step,
        ports=port_bound(uops),
        divider=sum(plan.divider_occ),
        special=max(special_by_mnemonic.values(), default=0.0),
        branch=plan.n_branches * plan.config.taken_branch_interval,
        lcd=loop_carried_bound(plan),
    )


# ---------------------------------------------------------------------------
# the periodicity probe
# ---------------------------------------------------------------------------


def _deltas_periodic(
    history: list[float], p: int, rel_tol: float
) -> bool:
    """Do the last 2p per-iteration deltas repeat with period ``p``?

    ``history`` holds cumulative retire times, so this needs ``3p``
    trailing deltas (the pattern seen three full times).  Used as a
    cheap prefilter before the full state certificate.
    """
    count = len(history) - 1
    if count < 3 * p:
        return False
    for j in range(count - 2 * p, count):
        d1 = history[j + 1] - history[j]
        d0 = history[j + 1 - p] - history[j - p]
        if abs(d1 - d0) > rel_tol * max(abs(d1), abs(d0), 1e-12):
            return False
    return True


def _shifted(a: float, b: float, delta: float, rel_tol: float) -> bool:
    """Is ``a == b + delta`` up to float-accumulation noise?"""
    return abs(a - b - delta) <= rel_tol * max(1.0, abs(a), abs(b))


def _certify_period(
    p: int,
    *,
    snapshots,
    history: list[float],
    retire_times: list[float],
    spans: list[float],
    consulted: list[bool],
    rob_size: int,
    n_body: int,
    rel_tol: float,
) -> bool:
    """The limit-cycle certificate: does state(t) == state(t-p) + delta?

    The engine is deterministic and its update rules are invariant
    under a uniform time shift, so if every piece of state the next
    iteration can read recurs shifted by one period's cycles, the
    whole future trajectory repeats the certified period forever and
    extrapolation along it is exact.  Each clause below either proves
    a state component shifted, or proves the component can never be
    read again ("stale": unchanged and at/below the frontend clock,
    which lower-bounds every future ready time):

    * register / iteration-invariant memory / special-op / divider /
      taken-branch clocks: shifted or stale,
    * port busy tails: shifted or stale,
    * scheduler gap lists: pairwise shifted above the stale horizon —
      or never consulted during the certified window (every µop issued
      at/after all its candidate tails, which recurs by induction once
      the tails themselves shift),
    * frontend clock: shifted with the retire clock.  A *decoupled*
      frontend (advancing at its nominal rate below the retire slope)
      is rejected outright: dispatch-paced ready times then drift
      against the shifted port tails, so a ``ready >= tail`` relation
      that held all through the probe can flip far beyond it and
      change the schedule — the induction is only sound when every
      clock the scheduler compares advances at the same rate,
    The caller must additionally ensure the certified window is free
    of *fragile* issue decisions (the engine's ``fragile`` witness,
    :data:`~repro.simulator.engine.FRAGILE_EPS`): the shift
    comparison below tolerates float-accumulation noise, and on a
    knife-edge comparison that same noise decides the trajectory.

    * reorder buffer: full with contents pairwise shifted/stale, or
      not full *and* provably never able to apply backpressure: every
      observed retire-to-ready span, plus the worst transient's excess
      over the backward-extrapolated periodic line, stays below the
      ROB's span at the certified slope (with two iterations' slack).
    """
    snap_t = snapshots[-1]
    snap_tp = snapshots[-1 - p]
    fe_t, clocks_t, tails_t, gaps_t = snap_t
    fe_tp, clocks_tp, tails_tp, gaps_tp = snap_tp
    count = len(history) - 1
    delta = history[count] - history[count - p]
    if delta <= 0:
        return False
    fe_floor = fe_tp

    # frontend clock: must be coupled (shifted by delta) — see docstring
    if not _shifted(fe_t, fe_tp, delta, rel_tol):
        return False

    # scalar clocks: shifted, or stale below every future ready time
    for a, b in zip(clocks_t, clocks_tp):
        if not (
            _shifted(a, b, delta, rel_tol)
            or (a == b and a <= fe_floor)
        ):
            return False
    for a, b in zip(tails_t, tails_tp):
        if not (
            _shifted(a, b, delta, rel_tol)
            or (a == b and a <= fe_floor)
        ):
            return False

    # scheduler gaps (snapshots carry live gaps only — those ending
    # above their own frontend clock, which lower-bounds every future
    # ready): pairwise shifted, unless the certified window never
    # consulted them at all
    if any(consulted[count - p:count]):
        for per_port_t, per_port_tp in zip(gaps_t, gaps_tp):
            if len(per_port_t) != len(per_port_tp):
                return False
            for (a0, a1), (b0, b1) in zip(per_port_t, per_port_tp):
                if not (
                    _shifted(a0, b0, delta, rel_tol)
                    and _shifted(a1, b1, delta, rel_tol)
                ):
                    return False

    # reorder buffer
    n_t = len(retire_times)
    n_tp = n_t - p * n_body
    full_t = n_t >= rob_size
    full_tp = n_tp >= rob_size
    if full_t != full_tp:
        return False
    if full_t:
        for k in range(rob_size):
            a = retire_times[n_t - rob_size + k]
            b = retire_times[n_tp - rob_size + k]
            if not (
                _shifted(a, b, delta, rel_tol)
                or (a == b and a <= fe_floor)
            ):
                return False
    else:
        # not full yet: prove backpressure can never bind once it is.
        # The head entry at future instruction i is retire(i - rob);
        # it is harmless iff it stays at/below ready(i), i.e. iff the
        # ROB's span at the certified slope exceeds every
        # retire-to-ready span, transient excursions included.
        step = delta / (p * n_body)
        rob_span = rob_size * step
        max_span = max(spans[max(0, count - 2 * p):count], default=0.0)
        rp_t = history[count]
        excess = 0.0
        for k, v in enumerate(retire_times):
            e = v - (rp_t - (n_t - 1 - k) * step)
            if e > excess:
                excess = e
        if max_span + excess + 2.0 * (delta / p) > rob_span:
            return False
    return True


def _window_slope(
    history: list[float],
    count: int,
    stable_windows: tuple[int, ...],
    stable_rtol: float,
) -> Optional[tuple[float, int]]:
    """``(slope, span)`` when two consecutive window means agree.

    The stable detector's firing predicate: for the first window width
    whose last two spans agree to ``stable_rtol``, return the slope
    averaged over both spans.  Acceptance demands this fire *twice* —
    once to open the candidate and once again after the verify
    extension — because a decaying transient (periodic hiccups dying
    out) can ape one coincidence but rarely the same one twice, a
    verify-length apart, with a consistent slope.
    """
    for w in stable_windows:
        if count < 2 * w:
            continue
        s1 = (history[count] - history[count - w]) / w
        s2 = (history[count - w] - history[count - 2 * w]) / w
        if abs(s1 - s2) <= stable_rtol * max(abs(s1), 1e-12):
            return (history[count] - history[count - 2 * w]) / (2 * w), 2 * w
    return None


class _Probe:
    """The convergence detectors as :meth:`CycleEngine.run`'s observer.

    Records the retire history, asks for the certificate's witnesses
    and snapshots the live state through the first
    :data:`DEFAULT_CERTIFY_UNTIL` iterations, and stops the run once a
    detector converges (see :func:`probe`).  ``explained(slope,
    certified)`` vets each converged slope: one it rejects still ends
    detection, but the run goes on to ``measure_horizon`` so the
    history covers the measurement window there too.
    """

    def __init__(self, plan: UopPlan, measure_horizon: int, explained):
        self.plan = plan
        self.measure_horizon = measure_horizon
        self.explained = explained
        # static key universes for the state snapshots (reg_ready /
        # mem_ready / special_free only ever hold these keys, variant
        # memory entries aside — and those are dead past their iteration)
        self.static_roots = sorted({r for ws in plan.writes for r in ws})
        self.static_mem = sorted(
            {k for mws in plan.mem_writes_of for k, variant in mws
             if not variant},
            key=repr,
        )
        self.static_special = sorted(
            {plan.mnemonic_of[j] for j in range(plan.n_body)
             if plan.special_of[j] is not None}
        )
        self.ports_sorted = sorted(plan.ports)
        self.history = [0.0]
        #: witnesses the engine fills while ``witnessing`` holds
        self.witnessing = True
        self.retire_times: list[float] = []
        self.spans: list[float] = []
        self.consulted: list[bool] = []
        self.fragile: list[bool] = []
        self.snapshots: deque = deque(maxlen=DEFAULT_MAX_PERIOD + 1)
        #: a stable candidate awaiting its verify extension:
        #: (fire count, slope, averaged span)
        self.pending: Optional[tuple[int, float, int]] = None
        #: the accepted detection: (count, slope, certified, period)
        self.found: Optional[tuple[int, float, bool, int]] = None

    def run(self) -> ProbeOutcome:
        """Run the engine under this observer; return what it detected."""
        horizon = max(DEFAULT_MAX_PROBE_ITERATIONS, self.measure_horizon)
        CycleEngine().run(
            self.plan, iterations=horizon, warmup=0, observer=self
        )
        history = self.history
        count = len(history) - 1
        if (
            self.found is None
            and self.pending is not None
            and horizon <= DEFAULT_MAX_PROBE_ITERATIONS
        ):
            # the verify deadline fell past the probe budget and there is
            # no measured continuation to prefer: confirm with whatever
            # extension accrued, if long enough to mean anything
            c0, s0, span0 = self.pending
            if (
                count - c0 >= max(4, DEFAULT_STABLE_VERIFY // 2, c0 // 4)
                and _verified(history, count, c0, s0)
            ):
                slope = (history[count] - history[c0 - span0]) / (
                    count - c0 + span0
                )
                self.found = (count, slope, False, 0)
        if self.found is None:
            win = max(1, min(count, 2 * max(DEFAULT_MAX_PERIOD, 4)))
            slope = (history[count] - history[count - win]) / win
            return ProbeOutcome(
                slope=slope, iterations=count, converged=False,
                certified=False, period=0, history=tuple(history),
            )
        count, slope, certified, period = self.found
        return ProbeOutcome(
            slope=slope, iterations=count, converged=True,
            certified=certified, period=period, history=tuple(history),
        )

    def attach(self, reg_ready, mem_ready, special_free, port_tail,
               port_gaps, frontend, divider_free, last_branch) -> None:
        self.state = (reg_ready, mem_ready, special_free, port_tail, port_gaps)
        self._snapshot(frontend, divider_free, last_branch)

    def _snapshot(self, frontend, divider_free, last_branch) -> None:
        # snapshots carry only gaps still reachable at snapshot time:
        # every future ready is >= the frontend clock, so gaps ending
        # at/below it can never be filled.  Gaps are sorted by end, and
        # each is an immutable tuple the snapshot can share.
        reg_ready, mem_ready, special_free, port_tail, port_gaps = self.state
        self.snapshots.append((
            frontend,
            (divider_free, last_branch)
            + tuple(reg_ready.get(r, 0.0) for r in self.static_roots)
            + tuple(mem_ready.get(k, 0.0) for k in self.static_mem)
            + tuple(special_free.get(m, 0.0) for m in self.static_special),
            tuple(port_tail[pt] for pt in self.ports_sorted),
            tuple(
                tuple(gaps[bisect_right(gaps, frontend, key=_gap_end):])
                for gaps in map(port_gaps.__getitem__, self.ports_sorted)
            ),
        ))

    def _accept(self, count: int, slope: float, certified: bool,
                period: int) -> bool:
        self.found = (count, slope, certified, period)
        self.witnessing = False
        return self.explained(slope, certified) or count >= self.measure_horizon

    def boundary(self, it, retire, frontend, divider_free, last_branch,
                 span, consulted, fragile) -> bool:
        history = self.history
        history.append(retire)
        count = it + 1
        if self.found is not None:
            # unexplained detection: measuring on to the horizon
            return count >= self.measure_horizon
        if count > DEFAULT_MAX_PROBE_ITERATIONS:
            return False  # detectors gave up; the engine runs on
        if it < DEFAULT_CERTIFY_UNTIL:
            self.spans.append(span)
            self.consulted.append(consulted)
            self.fragile.append(fragile)
            self._snapshot(frontend, divider_free, last_branch)
            if count >= max(3, DEFAULT_MIN_PROBE_ITERATIONS):
                snapshots = self.snapshots
                for p in range(
                    1, min(DEFAULT_MAX_PERIOD, len(snapshots) - 1) + 1
                ):
                    if any(self.fragile[count - p:count]):
                        continue
                    if not _deltas_periodic(history, p, DEFAULT_DELTA_RTOL):
                        continue
                    if _certify_period(
                        p,
                        snapshots=snapshots,
                        history=history,
                        retire_times=self.retire_times,
                        spans=self.spans,
                        consulted=self.consulted,
                        rob_size=self.plan.rob_size,
                        n_body=self.plan.n_body,
                        rel_tol=1e-9,
                    ):
                        slope = (history[count] - history[count - p]) / p
                        return self._accept(count, slope, True, p)
            self.witnessing = count < min(
                DEFAULT_CERTIFY_UNTIL, DEFAULT_MAX_PROBE_ITERATIONS
            )
        if count >= DEFAULT_STABLE_FROM:
            pending = self.pending
            if pending is not None:
                c0, s0, span0 = pending
                # the later a candidate fires, the longer its regime has
                # already persisted — and a slow state drift (a buffer
                # filling toward saturation) can hold an exactly periodic
                # schedule for that long before flipping it.  Scale the
                # verify extension with the fire time so late candidates
                # must survive proportionally far past their own regime.
                if count - c0 >= max(DEFAULT_STABLE_VERIFY, c0 // 2):
                    if _verified(history, count, c0, s0):
                        # accept; average over the fire window plus the
                        # whole extension to dilute window-phase error
                        slope = (
                            history[count] - history[c0 - span0]
                        ) / (count - c0 + span0)
                        return self._accept(count, slope, False, 0)
                    self.pending = None  # plateau broke; resume detection
            if self.pending is None:
                fired = _window_slope(
                    history, count, DEFAULT_STABLE_WINDOWS,
                    DEFAULT_STABLE_RTOL,
                )
                if fired is not None:
                    slope, span = fired
                    self.pending = (count, slope, span)
        return False


def _verified(history: list[float], count: int, c0: int, s0: float) -> bool:
    """Does the verify extension ``c0..count`` confirm slope ``s0``?

    Its measured slope *and* a fresh window re-fire must both agree
    with the candidate to :data:`DEFAULT_STABLE_VERIFY_RTOL`.
    """
    tol = DEFAULT_STABLE_VERIFY_RTOL * max(abs(s0), 1e-12)
    sv = (history[count] - history[c0]) / (count - c0)
    again = _window_slope(
        history, count, DEFAULT_STABLE_WINDOWS, DEFAULT_STABLE_RTOL
    )
    return (
        abs(sv - s0) <= tol
        and again is not None
        and abs(again[0] - s0) <= tol
    )


def probe(plan: UopPlan, measure_horizon: int = 0) -> ProbeOutcome:
    """Run the cycle-accurate schedule until its limit cycle converges.

    The run *is* a :meth:`CycleEngine.run` — the probe is its
    iteration-boundary observer (:class:`_Probe`), so the probed
    schedule is the engine's, float for float.  With ``measure_horizon
    > DEFAULT_MAX_PROBE_ITERATIONS``, a schedule that defeats both
    detectors keeps running (detectors off) to that horizon, so the
    returned history covers a full measurement window and the caller
    can read off the engine's exact answer.

    The two convergence detectors, tried in order of strength:

    1. The limit-cycle **certificate** of :func:`_certify_period`: a
       period ``p <= DEFAULT_MAX_PERIOD`` is accepted once the retire
       deltas repeat for ``2p`` iterations (cheap prefilter) *and* the
       engine's full live state recurs shifted by one period's cycles
       (the proof).  Exact — the future trajectory provably repeats.
       The certificate bookkeeping (state snapshots, fragility and
       consultation witnesses, dependency-span tracking) only runs
       through ``DEFAULT_CERTIFY_UNTIL`` iterations: short limit cycles
       certify early or never, and the bookkeeping would otherwise be
       pure overhead on long stable/measured tails.
    2. The **stable** heuristic, from ``DEFAULT_STABLE_FROM``
       iterations on: consecutive window-averaged slopes agree to
       ``DEFAULT_STABLE_RTOL`` for one of the
       ``DEFAULT_STABLE_WINDOWS`` widths, *and* the candidate survives
       a verify extension of ``max(DEFAULT_STABLE_VERIFY, fire/2)``
       probe iterations — its measured slope *and* a fresh window
       re-fire must both confirm to ``DEFAULT_STABLE_VERIFY_RTOL``.  A
       transient plateau can make two adjacent windows agree, but it
       ends — the extension (scaled to how long the candidate's
       regime already lasted, since a buffer slowly filling toward
       saturation can hold an exactly periodic schedule that long)
       lands on the other side of the break and rejects, letting
       detection resume.  This covers schedules
       whose limit cycle is too long to certify inside the probe
       budget (greedy port rotation can produce periods of 12, 22, …)
       but whose throughput has already settled.  Approximate — the
       caller must treat the answer as carrying ~window-phase error.

    Matching raw deltas alone is deliberately not trusted: transient
    plateaus can reproduce a periodic delta pattern for dozens of
    iterations while hidden state still drifts, and only the state
    recurrence can tell those apart.
    """
    if plan.n_body == 0:
        return ProbeOutcome(
            slope=0.0, iterations=0, converged=False, certified=False,
            period=0, history=(0.0,),
        )
    return _Probe(plan, measure_horizon, lambda slope, certified: True).run()


# ---------------------------------------------------------------------------
# the fast-path prediction
# ---------------------------------------------------------------------------


def _verdict(slope: float, certified: bool, bound: float) -> str:
    """The confidence verdict on a converged probe slope."""
    if slope < bound * (1.0 - 1e-6) - 1e-9:
        # below a provable lower bound: modeling bug, never answer
        return "analytical-mismatch"
    if certified:
        return "certified"
    if slope <= bound * (1.0 + DEFAULT_AGREEMENT_MARGIN) + 1e-9:
        return "stable"
    return "analytical-mismatch"


def predict_steady_state(
    plan: UopPlan,
    *,
    iterations: int = 200,
    warmup: int = 50,
) -> SteadyStateResult:
    """Analytical steady-state prediction with its confidence verdict.

    A pure function of the plan and the window: same plan in,
    bit-identical result out (the differential suite and the engine
    cache rely on this).  ``confident`` requires the probe to converge
    *and* the analytical bound to explain its slope: a certified limit
    cycle must never sit materially below the bound (the bound is a
    provable lower bound, so "below" means a modeling bug), and a
    merely *stable* slope must additionally stay within
    :data:`DEFAULT_AGREEMENT_MARGIN` above the bound — the stable
    heuristic has no proof behind it, so an unexplained slope is
    ``"analytical-mismatch"`` and not confident.

    When confident, ``cycles_per_iteration`` is the probed history
    extrapolated to the same ``(warmup, iterations)`` measurement
    window a full :meth:`CycleEngine.run` would use, so the fast path
    reproduces the engine's answer — exactly for certified probes
    (the trajectory provably repeats), to within window-phase error
    for stable ones.

    Whenever there is no trusted analytical answer the probe's run
    simply continues to the measurement horizon — same engine, none of
    the probed prefix repaid — and ``cycles_per_iteration`` is the
    engine's exact measurement: reason ``"simulated"`` (confident, a
    cycle-accurate answer, just not an analytical one) when both
    detectors gave up within ``DEFAULT_MAX_PROBE_ITERATIONS``, and
    ``"analytical-mismatch"`` (not confident) when a detector converged
    on a slope the bound cannot explain.
    """
    if iterations < 1:
        raise ValueError("need at least one measured iteration")
    bound = analytical_bound(plan)
    if plan.n_body == 0:
        return SteadyStateResult(
            cycles_per_iteration=0.0, slope=0.0, probe_iterations=0,
            period=0, converged=False, certified=False, confident=False,
            reason="empty", bound=bound,
        )
    b = bound.bound
    window = warmup + iterations
    out = _Probe(
        plan,
        window,
        lambda slope, certified: (
            _verdict(slope, certified, b) != "analytical-mismatch"
        ),
    ).run()
    if out.converged:
        reason = _verdict(out.slope, out.certified, b)
    else:
        # both detectors gave up; the run went on to the horizon
        reason = "simulated"
    total = out.extrapolate(window)
    measured = total - out.extrapolate(warmup)
    overhead = 1.0 + plan.config.measurement_overhead
    return SteadyStateResult(
        cycles_per_iteration=measured * overhead / iterations,
        slope=out.slope,
        probe_iterations=out.iterations,
        period=out.period,
        converged=out.converged,
        certified=out.certified,
        confident=reason != "analytical-mismatch",
        reason=reason,
        bound=bound,
        total_cycles=total,
    )
