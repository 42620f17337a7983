try:
    from hypothesis import settings
except ImportError:  # tests/test_evolve_sweep.py skips without it
    pass
else:
    # Property tests draw the same examples on every run, with no time
    # limit per example and no example database written to disk.
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")
