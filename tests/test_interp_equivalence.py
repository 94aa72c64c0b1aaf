"""Benchsuite-wide equivalence of the validation gate's interpreted runs.

``tests/data/interp_equivalence.json`` was recorded by
``tests/data/make_interp_equivalence.py``: every benchsuite program on
A100 and MI210, tuned with the differential validation gate over
``paper_sweep_configs(max_product=4)``. Each job must reproduce the same
verdicts (status and diff summary), winners, modeled seconds and a
SHA-256 of the final buffers of every interpreted run, compared with
``==``.
"""

import importlib.util
import json
import os
import warnings

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_interp_equivalence",
        os.path.join(DATA, "make_interp_equivalence.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()

with open(generator.FIXTURE) as _handle:
    FIXTURE = json.load(_handle)


def test_fixture_covers_every_program_on_both_vendors():
    assert sorted(FIXTURE) == generator.jobs()


@pytest.mark.parametrize("key", generator.jobs())
def test_validated_tune_matches_fixture(key):
    with warnings.catch_warnings():
        # seeded inputs overflow float32 in a few kernels, as on a GPU
        warnings.simplefilter("ignore", RuntimeWarning)
        job = generator.collect_job(*key.split("/"))
    assert json.loads(json.dumps(job)) == FIXTURE[key]
