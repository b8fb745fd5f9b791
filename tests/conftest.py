"""One hypothesis profile for every property test: derandomized, so each
run draws the same examples, with a per-example deadline."""

from datetime import timedelta

from hypothesis import settings

settings.register_profile("finhom", max_examples=200, derandomize=True,
                          deadline=timedelta(seconds=2))
settings.load_profile("finhom")
