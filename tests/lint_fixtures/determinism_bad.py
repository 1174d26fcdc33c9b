"""Fixture: every call here is banned entropy (POCO901 must flag each)."""

import random
import time
from datetime import datetime

import numpy as np


def sample_everything():
    stamp = time.time()
    now = datetime.now()
    ambient = random.random()
    legacy = np.random.normal(0.0, 1.0)
    unseeded = np.random.default_rng()
    unseeded_bitgen = np.random.PCG64()
    unseeded_stdlib = random.Random()
    return stamp, now, ambient, legacy, unseeded, unseeded_bitgen, unseeded_stdlib


def stamped(at=time.time()):
    return at


@memoize(random.randint(1, 9))
def cached():
    return 0


class Clocked:
    started = time.monotonic()


jitter = lambda: random.random()
fresh = [n for n in range(3) if np.random.rand() > 0.5]
