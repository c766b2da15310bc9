"""Test-wide hypothesis settings: no per-example deadline, so a slow shared
machine cannot fail a property test, and derandomized example generation,
so that every run tries the same examples."""

from hypothesis import settings

settings.register_profile("simembed", deadline=None, derandomize=True)
settings.load_profile("simembed")
