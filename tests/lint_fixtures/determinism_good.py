"""Fixture: explicitly seeded twin of determinism_bad (POCO901 silent)."""

import numpy as np


def sample(seed, sim_clock_s):
    rng = np.random.default_rng(seed)
    gen = np.random.Generator(np.random.PCG64(seed))
    draw = rng.normal(0.0, 1.0)
    other = gen.random()
    # Time comes from the simulation clock argument, never the host.
    return draw, other, sim_clock_s
