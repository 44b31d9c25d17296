"""Shared test settings.

Hypothesis draws its examples from a fixed seed, so that two runs of the
same code test the same inputs and a red run can be repeated exactly.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
