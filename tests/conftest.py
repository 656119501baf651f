"""Hypothesis draws the same examples on every run, so no verdict depends
on a random draw or on examples replayed from a local database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
