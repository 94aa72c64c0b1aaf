"""Benchsuite-wide equivalence of the static kernel model.

``tests/data/model_equivalence.json`` was recorded by
``tests/data/make_model_equivalence.py`` while every analysis behind
:class:`~repro.simulator.model.KernelModel` still walked the thread body
on its own: for every launch group of every benchsuite program, one
SHA-256 over the launch features, statistics, register estimate, global
accesses, bank conflicts and divergent branches of every block loop of
every ``paper_sweep_configs(max_product=16)`` alternative, and the
heuristic's choice, on A100 and MI210. Each group must reproduce it with
``==``.
"""

import importlib.util
import json
import os

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_model_equivalence",
        os.path.join(DATA, "make_model_equivalence.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()

with open(generator.FIXTURE) as _handle:
    FIXTURE = json.load(_handle)


def test_fixture_covers_every_program():
    assert sorted(FIXTURE) == generator.benchmarks()


@pytest.mark.parametrize("name", generator.benchmarks())
def test_model_results_match_fixture(name):
    assert generator.collect_benchmark(name) == FIXTURE[name]
