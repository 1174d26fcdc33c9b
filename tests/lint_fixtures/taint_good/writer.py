"""Same sinks as the bad twin, fed only deterministic values."""

import os

import numpy as np

from taint_good.sources import ordered_names, stamp


def log_sample(telemetry, sim_time_s):
    tick = stamp(sim_time_s)
    telemetry.record("tick", tick, 1.0)  # fine: sim time is deterministic


def persist(run_id, salt):
    return Checkpoint({"run": run_id, "salt": salt})  # fine: config inputs


def record_rows(ledger_path):
    rows = ordered_names()
    write_ledger(ledger_path, rows)  # fine: sorted() fixed the order


def fan_out(worker, seed):
    draw = np.random.default_rng(seed)
    return map_ordered(worker, [draw])  # fine: seeded generator pickles


class JitterController:
    def export_state(self):
        jitter = 0.0
        return {"jitter": jitter}  # fine: constant state


def save_stamped(path, sim_time_s):
    Checkpoint(run_key="k", payload={"t": stamp(sim_time_s)}).save(path)


def persist_listing(path):
    return Checkpoint(run_key="k", payload=[n for n in sorted(os.listdir(path))])


def journal_stamp(checkpoint, position, sim_time_s):
    checkpoint.append(position, stamp(sim_time_s))
