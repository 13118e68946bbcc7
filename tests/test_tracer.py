"""The benchmark's tracer still installs on the pipeline.

`perfbench/tracer.py` replaces named functions of the pipeline, metrics,
graph, config and cli modules and fails on a name that is gone, so a
rename or a deletion there fails here and not only in a traced run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install
from talentflow import metrics
tracer = Tracer()
install(tracer)
metrics.job_level("title", "org", metrics.JobIndex(()))
print(tracer.counts["metrics.job_level.calls"])
"""


def test_tracer_installs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", INSTALL, str(ROOT / "perfbench")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"  # the counted job_level still runs
