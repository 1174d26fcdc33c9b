"""POCO701 bad fixture package: cross-module unit-flow violations.

Every violation here is invisible to single-expression suffix
matching — the mismatching unit arrives through a call return, an
untagged local, or a positional parameter binding.
"""
