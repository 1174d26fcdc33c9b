"""Sink module: every sink family receives a tainted value."""

import os
import random

import numpy as np

from taint_bad.sources import ordered_names, stamp


def log_sample(telemetry):
    tick = stamp()
    telemetry.record("tick", tick, 1.0)  # BAD: wall clock -> telemetry


def persist(run_id):
    salt = os.environ["POCOLO_SALT"]
    return Checkpoint({"run": run_id, "salt": salt})  # BAD: env -> checkpoint


def record_rows(ledger_path):
    rows = ordered_names()
    write_ledger(ledger_path, rows)  # BAD: set order -> ledger


def fan_out(worker):
    draw = np.random.default_rng()
    return map_ordered(worker, [draw])  # BAD: unseeded rng -> pickled args


class JitterController:
    def export_state(self):
        jitter = random.random()
        return {"jitter": jitter}  # BAD: global RNG -> checkpointed state


def save_stamped(path):
    Checkpoint(run_key="k", payload={"t": stamp()}).save(path)  # BAD: chained


def persist_listing(path):
    return Checkpoint(run_key="k", payload=[n for n in os.listdir(path)])  # BAD
