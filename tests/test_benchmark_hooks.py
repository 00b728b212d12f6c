"""The names the benchmark's tracer patches must exist in the library.

perfbench/tracing.py wraps module-level functions and each body class's own
``_support`` and ``_gradient``; a renamed or moved one would otherwise only
surface in a full ``perfbench/run.py --smoke`` run.
"""

import sys
from pathlib import Path

from carnot_extremals import bodies, cli, flow, lift


def test_tracer_installs_and_uninstalls_every_hook():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    solve, support = flow._solve, bodies.LpBall.__dict__["_support"]
    tracer = tracing.Tracer({"cli": cli, "flow": flow, "lift": lift, "bodies": bodies})
    try:
        tracer.install()
        assert flow._solve is not solve
        assert bodies.LpBall.__dict__["_support"] is not support
    finally:
        tracer.uninstall()
    assert flow._solve is solve
    assert bodies.LpBall.__dict__["_support"] is support
