"""POCO901 bad fixture package: nondeterminism reaching sinks.

Each module plants one source kind (clock, env, unseeded RNG, set
order) and routes it — through locals, returns and a module boundary —
into a sink (telemetry, checkpoint, ledger, pickled worker args),
including the receiver of a chained call and a comprehension clause.
"""
