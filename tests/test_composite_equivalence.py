"""Benchsuite-wide equivalence of composite modeling and cache replay.

``tests/data/composite_equivalence.json`` was recorded by
``tests/data/make_composite_equivalence.py`` while each launch group
still reached the tuner and the scorer as one dict per launch: for every
benchsuite program on A100 and MI210, the ``repr`` of the modeled
composite time of a cold and a warm ``polygeist`` run and of the
``clang``, ``polygeist-noopt`` and ``polygeist-heuristic`` tiers, plus
the tuning key of every tuned launch group. Each program must reproduce
it with ``==``.
"""

import importlib.util
import json
import os

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_composite_equivalence",
        os.path.join(DATA, "make_composite_equivalence.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()

with open(generator.FIXTURE) as _handle:
    FIXTURE = json.load(_handle)


def test_fixture_covers_every_program():
    assert sorted(FIXTURE) == generator.benchmarks()


@pytest.mark.parametrize("name", generator.benchmarks())
def test_composites_match_fixture(name):
    assert generator.collect_program(name) == FIXTURE[name]
