"""POCO901 bad fixture package: nondeterminism reaching sinks.

Each module plants one source kind (clock, env, directory listing,
set order) and routes it — through locals, returns and a module
boundary — into a sink (telemetry, checkpoint payload, journal
record, ledger), including the receiver of a chained call and a
comprehension clause.
"""
