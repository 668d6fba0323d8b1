"""The benchmark's hooks into the package, read from perfbench/ as they are.

perfbench/workloads.py builds its TrainConfigs at import, so a field it
passes that the package no longer has fails this module at collection.
perfbench/layers.py wraps package functions by name; a name that is gone
is recorded as absent and its metrics silently leave the report.
"""
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    import workloads
finally:
    sys.path.remove(PERFBENCH)


def test_workloads_build_their_configs():
    assert set(workloads.WORKLOADS) == {"press-bench", "peg-episodes"}


def test_every_traced_layer_exists():
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []
