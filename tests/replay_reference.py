"""The replay's day step as it was written before the decisions were set up
once per run and the slot loop was trimmed, kept as the reference the
replay must equal bit for bit: ``_best_on_axis`` builds a day objective at
every capacity on every call and unpacks it over (capacity, row, axis); ``_choose_renewal`` blends the fresh batteries with the kept ones;
``_replay_day`` clamps every soc and budget index and counts the clamps
slot by slot.  :func:`reference_days` runs the day loop of
``simulate_policies`` on them and logs every day."""

from __future__ import annotations

import numpy as np

from twoscale import battery
from twoscale.core import INF, GridValueFn
from twoscale.intraday import control_grid, decomposition
from twoscale.policy import ADMISS_TOL
from twoscale.slowscale import DayObjective, day_continuation, renewal_states


def _best_on_axis(h, c, day, table, values, price_laws, cfg):
    h_grid, c_grid = values.grid.axes
    h1 = np.atleast_1d(np.asarray(h, dtype=float))
    renewal = renewal_states(h_grid, c_grid, cfg)
    by_size = price_laws.support[day][:, None] * renewal[0]
    disc = np.empty((len(c_grid), len(h_grid)))
    atoms = day_continuation(
        values.values[day + 1], by_size, price_laws.probs[day].tolist(), cfg.gamma, renewal, disc
    )
    ci = np.broadcast_to(np.searchsorted(c_grid, c), h1.shape)
    objective = DayObjective(table, h1, h_grid, ADMISS_TOL)
    with np.errstate(invalid="ignore"):
        obj = objective.unpack(objective(disc, atoms))
    obj = obj[ci, np.arange(len(h1))]
    pick = np.argmin if table.decomposition.budget_axis else np.argmax
    best = table.axis[pick(obj, axis=1)]
    return float(best[0]) if np.ndim(h) == 0 else best


def _choose_renewal(h_end, c, day, values, price_real, price_laws, cfg):
    support = price_laws.support[day]
    p_hat = support[np.argmin(np.abs(support[None, :] - price_real[:, None]), axis=1)]
    gamma = cfg.gamma
    sizes = [float(r) for r in cfg.renewal_grid if r > 0.0]
    kept = np.column_stack([np.maximum(h_end, 0.0), c])
    fresh = np.column_stack(battery.fresh_state(sizes, cfg)[1:])
    vnext = GridValueFn(values.grid, values.values[day + 1])
    vnext = vnext.eval_many(np.concatenate([kept, fresh]))
    best_r = np.zeros(len(c))
    best_v = gamma * vnext[: len(c)]
    for r, v_fresh in zip(sizes, vnext[len(c):]):
        v = p_hat * r + gamma * v_fresh
        better = v < best_v - 1e-12
        best_r = np.where(better, r, best_r)
        best_v = np.where(better, v, best_v)
    return best_r


def _replay_day(netload, soc, h, c, blocks, controls, cfg):
    d_soc, usage = effect = battery.control_effect(controls, cfg)
    n, n_slots = netload.shape
    bill = battery.stage_cost(controls, netload.T[:, :, None], np.asarray(cfg.rates)[:, None, None])
    aging = np.zeros((n, len(controls)))
    budget, s_step, s_top, a_len, slot_len, base = np.empty((6, n, 1))
    reads, budgets, start = [], [], 0
    for table, decision in blocks:
        rows = slice(start, start + len(decision))
        start = rows.stop
        fast = table.fast
        _, n_step, n_soc, n_axis = fast.shape
        ci = np.searchsorted(table.table.grid.axes[0], c[rows])
        s_step[rows, 0] = battery.soc_max(c[rows], cfg) / (n_soc - 1)
        s_top[rows], a_len[rows] = n_soc - 1, n_axis
        slot_len[rows] = n_soc * n_axis
        base[rows, 0] = (ci - 1) * (n_step * n_soc * n_axis)
        if table.decomposition.budget_axis:
            budget[rows, 0] = np.maximum(h[rows] - decision, 0.0)
            budgets.append((rows, table.axis[1] - table.axis[0], n_axis - 1))
        else:
            budget[rows] = INF
            base[rows, 0] += np.searchsorted(table.axis, decision)
            aging[rows] = decision[:, None] * usage
        reads.append((rows, fast.reshape(-1)))
    cost = bill + aging
    offsets = base + np.arange(1, n_slots + 1)[:, None, None] * slot_len
    soc_max = battery.soc_max(c, cfg)[:, None]
    soc_top = soc_max + ADMISS_TOL
    soc, h = soc[:, None], h[:, None]
    clamped, fallbacks = np.zeros((n, 1), dtype=int), np.zeros((n, 1), dtype=int)
    picks, value = np.empty((n_slots, n, 1), dtype=np.intp), np.empty((n, len(controls)))
    for m in range(n_slots):
        soc_next, left = battery.fast_dynamics(soc, np.minimum(h, budget), effect)
        feasible = soc_next >= -ADMISS_TOL
        feasible &= soc_next <= soc_top
        feasible &= left >= -ADMISS_TOL
        si = np.rint(soc_next / s_step)
        np.minimum(np.maximum(si, 0.0, out=si), s_top, out=si)
        si *= a_len
        for rows, a_step, a_top in budgets:
            ai = np.rint((budget[rows] - usage) / a_step)
            np.minimum(np.maximum(ai, 0.0, out=ai), a_top, out=ai)
            si[rows] += ai
        si += offsets[m]
        flat = si.astype(np.intp)
        for rows, entries in reads:
            value[rows] = entries.take(flat[rows])
        value += cost[m]
        q = np.where(feasible, value, INF)
        k = q.argmin(axis=1, keepdims=True)
        best = np.minimum.reduce(q, axis=1)
        if np.maximum.reduce(best) == INF:
            stuck = best == INF
            if not feasible[stuck].any(axis=1).all():
                raise RuntimeError("no admissible control")
            k[stuck, 0] = np.argmax(feasible[stuck], axis=1)
            fallbacks[stuck] += 1
        picks[m] = k
        used = usage[k]
        soc_raw, h_raw = battery.fast_dynamics(soc, h, (d_soc[k], used))
        soc = np.minimum(np.maximum(soc_raw, 0.0), soc_max)
        h = np.maximum(h_raw, 0.0)
        budget = np.maximum(budget - used, 0.0)
        clamped += (soc != soc_raw) | (h != h_raw)
    day_bill = np.add.accumulate(np.take_along_axis(bill, picks, axis=2), axis=0)[-1]
    return day_bill[:, 0], soc[:, 0], h[:, 0], clamped[:, 0], fallbacks[:, 0]


def reference_days(scenarios, runs, price_laws, classmap, cfg) -> list:
    """The day loop of ``simulate_policies`` on the reference functions.
    Per day, per mode in the order of ``runs``: the decisions of the rows
    that own a battery (None when no row does), what ``_replay_day``
    returns for them (bills, soc, h, clamps, fallbacks) and the renewal
    sizes of every scenario."""
    modes = [(decomposition(name), tables, values) for name, (tables, values) in runs.items()]
    n_controls = next(iter(modes[0][1].values())).n_controls
    controls = control_grid(cfg, n_controls)
    D = modes[0][2].horizon
    shape = (len(modes), scenarios.n_scenarios)
    soc, h, c = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    log = []
    for d in range(D + 1):
        cls = int(classmap.day_to_class[d])
        netload = scenarios.netload[:, d]
        own = c > 0.0
        day = [{"decision": None, "replay": None} for _ in modes]
        blocks = []
        for i, (dec, tables, values) in enumerate(modes):
            if own[i].any():
                rows = own[i]
                table = tables[cls]
                best = _best_on_axis(h[i, rows], c[i, rows], d, table, values, price_laws, cfg)
                decision = np.maximum(h[i, rows] - best, 0.0) if dec.budget_axis else best
                day[i]["decision"] = decision
                blocks.append((table, decision))
        if blocks:
            out = _replay_day(
                netload[np.nonzero(own)[1]], soc[own], h[own], c[own], blocks, controls, cfg
            )
            soc[own], h[own] = out[1], out[2]
            starts = np.cumsum([0] + [own[i].sum() for i in range(len(modes))])
            for i in range(len(modes)):
                if own[i].any():
                    day[i]["replay"] = tuple(a[starts[i]:starts[i + 1]] for a in out)
        price_real = scenarios.battery_price[:, d]
        for i, (_, _, values) in enumerate(modes):
            r = _choose_renewal(h[i], c[i], d, values, price_real, price_laws, cfg)
            day[i]["renewal"] = r
            new = r > 0.0
            soc[i, new], h[i, new], c[i, new] = battery.renewal_dynamics(
                soc[i, new], h[i, new], c[i, new], r[new], cfg
            )
        log.append(day)
    return log
