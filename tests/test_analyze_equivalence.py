"""Benchsuite-wide equivalence of ``repro analyze``'s modeled report.

``tests/data/analyze_equivalence.json`` was recorded by
``tests/data/make_analyze_equivalence.py`` while ``analyze_benchmark``
still modeled every launch with its own wrapper walk and merged the
Table-II metrics per launch: for every benchsuite program on A100 and
MI210, the ``repr`` of its composite seconds and the SHA-256 of its
report without the wall-clock parts. Each program must reproduce it with
``==``.
"""

import importlib.util
import json
import os

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_analyze_equivalence",
        os.path.join(DATA, "make_analyze_equivalence.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()

with open(generator.FIXTURE) as _handle:
    FIXTURE = json.load(_handle)


def test_fixture_covers_every_program():
    assert sorted(FIXTURE) == generator.benchmarks()


@pytest.mark.parametrize("name", generator.benchmarks())
def test_reports_match_fixture(name):
    assert generator.collect_program(name) == FIXTURE[name]


def test_digest_ignores_only_wall_clock_parts():
    report = {"kernels": [{"metrics": {"num_blocks": 3}}],
              "stages": {"tdo": 0.1}, "spans": [], "provenance": {}}
    timed = dict(report, stages={"tdo": 0.2}, spans=[{"name": "tdo"}],
                 provenance={"created": "now"})
    assert generator.report_digest(report) == \
        generator.report_digest(timed)
    # an int counter that became a float changes the digest
    floated = dict(report, kernels=[{"metrics": {"num_blocks": 3.0}}])
    assert generator.report_digest(report) != \
        generator.report_digest(floated)
