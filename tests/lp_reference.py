"""Test-only LP reference for the port binding.

The minimax binding as a linear program solved by HiGHS through
``scipy.optimize.linprog`` — the formulation :mod:`repro.analysis
.portbinding` used before it computed the most balanced binding
directly.  Its optimum is the exact bound the combinatorial binding
must reproduce; the binding HiGHS returns is *one* optimal binding,
not a canonical one.  This is the only module that imports scipy
(the ``dev`` extra).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from repro.analysis.portbinding import PortPressure
from repro.machine.model import MachineModel, ResolvedInstruction


def lp_port_binding(
    model: MachineModel, resolved: Sequence[ResolvedInstruction]
) -> PortPressure:
    """Minimax port binding via linear programming.

    Variables: ``x[u,p]`` = cycles of µop *u* executed on port *p*, plus
    the bound ``T``.  Minimize ``T`` subject to

    * ``sum_p x[u,p] = cycles(u)`` for every µop,
    * ``sum_u x[u,p] - T <= 0`` for every port,
    * ``x >= 0``.
    """
    uops = [
        (i, u.ports, u.cycles)
        for i, r in enumerate(resolved)
        for u in r.uops
    ]
    totals = {p: 0.0 for p in model.ports}
    per_instr: list[dict[str, float]] = [dict() for _ in resolved]
    if not uops:
        return PortPressure(
            ports=model.ports, totals=totals, per_instruction=per_instr,
            method="lp",
        )

    port_index = {p: k for k, p in enumerate(model.ports)}
    n_ports = len(model.ports)

    # Variable layout: one x per (uop, candidate port), then T last.
    var_of: list[tuple[int, int]] = []  # (uop_id, port_id)
    offsets: list[list[int]] = []
    for u_id, (_, ports, _) in enumerate(uops):
        offs = []
        for p in ports:
            offs.append(len(var_of))
            var_of.append((u_id, port_index[p]))
        offsets.append(offs)
    n_vars = len(var_of) + 1  # + T

    c = np.zeros(n_vars)
    c[-1] = 1.0

    # Equality: each uop's occupancy fully distributed.
    a_eq = np.zeros((len(uops), n_vars))
    b_eq = np.zeros(len(uops))
    for u_id, (_, _, cycles) in enumerate(uops):
        for v in offsets[u_id]:
            a_eq[u_id, v] = 1.0
        b_eq[u_id] = cycles

    # Inequality: per-port load <= T.
    a_ub = np.zeros((n_ports, n_vars))
    for v, (_, p_id) in enumerate(var_of):
        a_ub[p_id, v] = 1.0
    a_ub[:, -1] = -1.0
    b_ub = np.zeros(n_ports)

    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n_vars,
        method="highs",
    )
    assert res.success, res.message

    for v, (u_id, p_id) in enumerate(var_of):
        load = float(res.x[v])
        if load <= 1e-12:
            continue
        port = model.ports[p_id]
        instr_idx = uops[u_id][0]
        totals[port] += load
        per_instr[instr_idx][port] = per_instr[instr_idx].get(port, 0.0) + load
    return PortPressure(
        ports=model.ports, totals=totals, per_instruction=per_instr,
        method="lp",
    )
