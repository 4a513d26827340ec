import os

from hypothesis import settings

# CI runs the property tests on a fixed sequence of examples, so a red run
# can be reproduced; locally hypothesis keeps drawing fresh ones.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
