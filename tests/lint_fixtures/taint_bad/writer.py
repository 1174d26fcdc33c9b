"""Sink module: every sink family receives a tainted value."""

import os

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


def save_stamped(path):
    Checkpoint(run_key="k", payload={"t": stamp()}).save(path)  # BAD: chained


def persist_listing(path):
    return Checkpoint(run_key="k", payload=[n for n in os.listdir(path)])  # BAD


def journal_stamp(checkpoint, position):
    checkpoint.append(position, stamp())  # BAD: wall clock -> journal record
