"""Fixture: unit-correct twin of units_bad (POCO701 must stay silent)."""


def sound_budget(idle_power_w, active_power_w, duration_s, budget_joules):
    total_power_w = idle_power_w + active_power_w
    energy_joules = total_power_w * duration_s
    over = energy_joules > budget_joules
    remaining_joules = budget_joules - energy_joules
    avg_power_w = remaining_joules / duration_s
    scaled_power_w = 2.0 * avg_power_w
    utilization = avg_power_w / total_power_w
    simulate(power_cap_w=scaled_power_w)
    return over, utilization


def paper_notation(p_j, r_j, a_w, sum_j, usd_per_kwh):
    # Per-app subscripts (p_j = power of app j, a_w = per-way
    # elasticity) and compound rates carry no suffix unit.
    return p_j * r_j + a_w + sum_j * usd_per_kwh


def simulate(power_cap_w):
    return power_cap_w
