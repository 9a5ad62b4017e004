"""Shared test settings: one hypothesis profile for every property test.

The fields the properties draw take from microseconds to a fraction of a
second to build and measure, so no example has a deadline and slow data
generation is not a failure.  Each module still sets its own max_examples.
"""

from hypothesis import HealthCheck, settings

settings.register_profile("fsx", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("fsx")
