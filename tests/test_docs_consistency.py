"""Meta-tests keeping the documentation honest.

These assert that what README/DESIGN/EXPERIMENTS claim actually exists:
the README quickstart runs verbatim, every experiment has its harness
file, and the benchmark inventory matches the docs.
"""

import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent


class TestReadme:
    def test_quickstart_code_runs(self):
        """Execute the README's python block verbatim."""
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README must contain a python quickstart"
        namespace = {}
        exec(blocks[0], namespace)  # noqa: S102 - our own documentation

    def test_cli_commands_exist(self):
        from repro.__main__ import build_parser
        text = (ROOT / "README.md").read_text()
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        for command in ("emit-ir", "tune", "hipify", "targets"):
            assert command in sub.choices
            assert command in text

    def test_documented_files_exist(self):
        text = (ROOT / "README.md").read_text()
        for link in re.findall(r"\]\(([^)#]+\.md)\)", text):
            assert (ROOT / link).exists(), "broken doc link: %s" % link


class TestDesign:
    def test_all_rodinia_benchmarks_listed_and_registered(self):
        from repro.benchsuite import BENCHMARKS
        text = (ROOT / "DESIGN.md").read_text()
        for name in BENCHMARKS:
            assert name in text, "DESIGN.md must list benchmark %s" % name

    def test_experiment_index_maps_to_bench_files(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench_file in re.findall(r"benchmarks/(bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / bench_file).exists(), \
                "DESIGN.md references missing %s" % bench_file

    def test_every_bench_file_in_experiments_doc(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert path.name in experiments, \
                "EXPERIMENTS.md must describe %s" % path.name


class TestObservability:
    """docs/OBSERVABILITY.md's span table names exactly the spans the
    product emits."""

    @staticmethod
    def _emitted():
        names = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            for name in re.findall(r'obs_tracer\.span\(\s*"([^"]+)"',
                                   path.read_text()):
                names.add(name.replace("%s", "<name>"))
        return names

    @staticmethod
    def _documented():
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        table = text[text.index("| span | site |"):]
        table = table[:table.index("\n\n")]
        names = set()
        for row in table.splitlines()[2:]:
            first_cell = row.split("|")[1]
            # the names, not the category in parentheses
            names.update(re.findall(r"`([^`]+)`",
                                    first_cell.split("(")[0]))
        return names

    def test_every_emitted_span_is_documented(self):
        emitted = self._emitted()
        assert "model.launch_group" in emitted
        assert emitted - self._documented() == set()

    def test_every_documented_span_is_emitted(self):
        assert self._documented() - self._emitted() == set()


class TestExamples:
    def test_examples_exist_and_have_mains(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 4
        for path in examples:
            text = path.read_text()
            assert "__main__" in text, "%s must be runnable" % path.name
            assert '"""' in text, "%s must have a docstring" % path.name

    def test_examples_listed_in_readme(self):
        readme = (ROOT / "README.md").read_text()
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme


class TestPaperConstants:
    """Numbers quoted from the paper must match the code."""

    def test_table1_bandwidths(self):
        from repro.targets import A100, A4000, MI210, RX6800
        assert A4000.memory_bandwidth_gbs == 445.0
        assert RX6800.memory_bandwidth_gbs == 512.0
        assert A100.memory_bandwidth_gbs == 1555.0
        assert MI210.memory_bandwidth_gbs == 1638.0

    def test_nw_shared_bytes_match_paper(self):
        """The paper: nw kernels allocate 2180 bytes per 16-thread block."""
        from repro.analysis import shared_bytes_per_block
        from repro.dialects import polygeist
        from repro.benchsuite import get_benchmark
        from repro.frontend import ModuleGenerator, parse_translation_unit
        from repro.transforms.coarsen import block_parallels
        bench = get_benchmark("nw")
        unit = parse_translation_unit(bench.source)
        generator = ModuleGenerator(unit)
        generator.get_launch_wrapper("needle_1", 1, (16,))
        wrapper = polygeist.find_gpu_wrappers(generator.module.op)[0]
        shared = shared_bytes_per_block(block_parallels(wrapper)[0])
        # temp[17][17] + ref[16][16], 4-byte ints
        assert shared == 17 * 17 * 4 + 16 * 16 * 4 == 2180

    def test_footnote4_balancing(self):
        from repro.transforms import balance_factors
        assert balance_factors(16, [64, 64, 64]) == [4, 2, 2]
        assert balance_factors(6, [64, 64, 64]) == [3, 2, 1]
