"""Benchsuite-wide equivalence of materialized coarsening alternatives.

``tests/data/materialize_equivalence.json`` was recorded by
``tests/data/make_materialize_equivalence.py`` before coarsening moved
its first copy instead of cloning it: for every launch group of every
benchsuite program at ``paper_sweep_configs(max_product=4/8/16)``, a
SHA-256 of the printed module right after materialization and after
``cleanup_regions``, and the TDO winner on A100 and MI210. Each group
must reproduce them with ``==``, and every materialized alternatives op
must pass the structural verifier (parent links, use-def chains with no
duplicate or dangling use records, dominance) before cleanup touches it.
"""

import importlib.util
import json
import os

import pytest

from repro.ir import verify_op

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_materialize_equivalence",
        os.path.join(DATA, "make_materialize_equivalence.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()

with open(generator.FIXTURE) as _handle:
    FIXTURE = json.load(_handle)


def test_fixture_covers_every_program():
    assert sorted(FIXTURE) == generator.benchmarks()


@pytest.mark.parametrize("name", generator.benchmarks())
def test_materialized_alternatives_match_fixture(name):
    verified = []

    def verify(alt):
        verify_op(alt)
        verified.append(len(alt.regions))

    record = generator.collect_benchmark(name, on_materialized=verify)
    assert json.loads(json.dumps(record)) == FIXTURE[name]
    assert verified == [group["alternatives"]
                        for group in record.values()
                        if group["alternatives"]]
