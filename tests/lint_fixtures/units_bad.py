"""Fixture: every site here mixes units (POCO701 must flag each)."""


def broken_budget(idle_power_w, energy_joules, duration_s, budget_w):
    bad_sum_w = idle_power_w + energy_joules
    over = energy_joules > budget_w
    headroom_w = budget_w - duration_s
    total_joules = idle_power_w
    bad_sum_w += duration_s
    simulate(power_cap_w=energy_joules)
    return bad_sum_w, over, headroom_w, total_joules


def simulate(power_cap_w):
    return power_cap_w


def deco(**limits):
    return lambda func: func


@deco(cap_w=spent_j)
def defaulted(budget_w=cap_w + spent_j):
    return budget_w


class Budget:
    headroom_w = cap_w - delay_s


drain = lambda: cap_w + spent_j
picked = [cap_w for cap_w in caps if cap_w > spent_j]
