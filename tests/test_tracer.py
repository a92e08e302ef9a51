"""The benchmark's call tracer against the program it wraps.

`perfbench/tracer.py` wraps named functions and methods of every
``qpair`` layer, reading each by name from its owner, so renaming or
deleting a traced name breaks every traced benchmark run.  This test
installs it on the current program and uninstalls it again.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer, install  # noqa: E402


def test_tracer_installs_on_every_traced_name_and_uninstalls():
    tracer = Tracer()
    try:
        install(tracer)
        patched = list(tracer._patches)
        wrapped = [(owner, attr, original) for owner, attr, original
                   in patched if getattr(owner, attr) is not original]
    finally:
        tracer.uninstall()
    assert patched and wrapped == patched
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patched)
    names = {attr for _, attr, _ in patched}
    assert {"coordinates", "build_named_element", "verify_ladder_relations",
            "generator_matrix"} <= names
