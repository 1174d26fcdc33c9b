"""Fixture: violations silenced by inline suppression comments."""

import time


def stamp():
    return time.time()  # pocolint: disable=determinism-taint


def stamp_all():
    return time.time()  # pocolint: disable=all


def not_suppressed():
    # A suppression inside a string literal must not count:
    marker = "# pocolint: disable=determinism-taint"
    return time.time(), marker
