"""Performance regression gating: diff two recorded runs cell by cell.

``repro check baseline new --noise-band 5%`` loads two records — each a
``repro sweep --json`` output or a saved ``perfbench/run.py`` stdout —
extracts the comparable time cells — per-(benchmark, arch, tier) modeled
seconds for fig16 sweeps, per-(kernel, config) seconds for fig13, the
``s``/``ms`` metrics of a perfbench run — and fails when any cell in
``new`` exceeds its baseline by more than the noise band. Cells present
in the baseline but missing from ``new`` also fail: silently dropping a
cell must not read as "no regression".

Comparisons are refused (exit code 2, never a diff) when the two records
are not comparable at all:

* different kinds (a sweep vs a perfbench run, fig16 vs fig13, two
  perfbench workloads or trace modes);
* different provenance schema versions (sweeps);
* different architecture sets (sweeps);
* sweep records predating provenance headers (regenerate them first).

All extracted cells are times, so lower is better and the gate is
one-sided: improvements beyond the band are reported but never fail.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: provenance schema this checker understands
PROVENANCE_SCHEMA = 2

#: units of the perfbench metrics that are times (lower is better)
PERFBENCH_TIME_UNITS = ("s", "ms")

#: the first line of a ``perfbench/run.py`` stdout
_PERFBENCH_HEADER = re.compile(r"workload (\S+) seed (\d+) trace (\d+):")


def provenance_header(archs: Optional[List[str]] = None,
                      created: Optional[str] = None) -> Dict[str, object]:
    """The provenance block every record producer stamps on its output.

    ``created`` is populated by the caller (the CLI passes a wall-clock
    timestamp; tests pass ``None`` for byte-stable fixtures) so this
    module stays deterministic.
    """
    import platform

    from .. import __version__
    return {
        "schema": PROVENANCE_SCHEMA,
        "repro_version": __version__,
        "python": platform.python_version(),
        "arch": sorted(str(a) for a in archs) if archs else None,
        "created": created,
    }


class CheckUsageError(ValueError):
    """The two records cannot be compared at all (exit code 2)."""


def parse_noise_band(text: str) -> float:
    """Parse a noise band: ``"5%"`` → 0.05, ``"0.05"`` → 0.05."""
    text = str(text).strip()
    try:
        if text.endswith("%"):
            value = float(text[:-1].strip()) / 100.0
        else:
            value = float(text)
    except ValueError:
        raise CheckUsageError(
            "cannot parse noise band %r (expected e.g. '5%%' or 0.05)"
            % text) from None
    if value < 0:
        raise CheckUsageError("noise band must be non-negative")
    return value


def parse_perfbench(text: str) -> Optional[Dict[str, object]]:
    """A saved ``perfbench/run.py`` stdout as a record, or None when
    ``text`` does not start like one.

    The workload, seed and trace mode come from the first line, the
    metrics from the JSON result on the last.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    header = _PERFBENCH_HEADER.match(lines[0]) if lines else None
    if header is None:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or \
            not isinstance(result.get("metrics"), dict):
        raise CheckUsageError(
            "perfbench output ends without its JSON result line "
            "(did the run fail?)")
    return {"perfbench": {"workload": header.group(1),
                          "seed": int(header.group(2)),
                          "trace": int(header.group(3))},
            "metrics": result["metrics"]}


def load_record(path: str) -> Dict[str, object]:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise CheckUsageError("cannot load %s: %s" % (path, error)) \
            from None
    try:
        payload = json.loads(text)
    except ValueError:
        payload = parse_perfbench(text)
        if payload is None:
            raise CheckUsageError(
                "%s is neither a JSON record nor perfbench output" % path) \
                from None
    if not isinstance(payload, dict):
        raise CheckUsageError("%s is not a JSON object" % path)
    return payload


def record_kind(payload: Dict[str, object]) -> Tuple[str, str]:
    """Classify a record: ``("sweep", figure)`` or
    ``("perfbench", "<workload> trace <t>")``."""
    if "perfbench" in payload:
        run = payload["perfbench"]
        return ("perfbench", "%s trace %s" % (run["workload"], run["trace"]))
    if "figure" in payload:
        return ("sweep", str(payload["figure"]))
    raise CheckUsageError(
        "unrecognized record (neither a sweep JSON with 'figure' nor "
        "perfbench output)")


def _provenance_archs(provenance: Dict[str, object]) -> List[str]:
    arch = provenance.get("arch")
    if arch is None:
        return []
    if isinstance(arch, str):
        return [arch]
    return sorted(str(a) for a in arch)


def check_provenance(baseline: Dict[str, object],
                     new: Dict[str, object]) -> List[str]:
    """Refuse cross-schema / cross-arch comparisons; return warnings."""
    warnings: List[str] = []
    missing = [label for label, payload in
               (("baseline", baseline), ("new", new))
               if not isinstance(payload.get("provenance"), dict)]
    if missing:
        raise CheckUsageError(
            "%s record(s) have no provenance header — regenerate with a "
            "current `repro sweep --json` before comparing"
            % " and ".join(missing))
    prov_a = baseline["provenance"]
    prov_b = new["provenance"]
    if prov_a.get("schema") != prov_b.get("schema"):
        raise CheckUsageError(
            "cross-schema comparison refused: baseline schema %r vs new "
            "schema %r" % (prov_a.get("schema"), prov_b.get("schema")))
    archs_a = _provenance_archs(prov_a)
    archs_b = _provenance_archs(prov_b)
    if archs_a != archs_b:
        raise CheckUsageError(
            "cross-arch comparison refused: baseline covers %s, new "
            "covers %s" % (archs_a or "<unknown>", archs_b or "<unknown>"))
    if prov_a.get("repro_version") != prov_b.get("repro_version"):
        warnings.append("repro version differs: baseline %s vs new %s" %
                        (prov_a.get("repro_version"),
                         prov_b.get("repro_version")))
    if prov_a.get("python") != prov_b.get("python"):
        warnings.append("python version differs: baseline %s vs new %s" %
                        (prov_a.get("python"), prov_b.get("python")))
    return warnings


# -- cell extraction ----------------------------------------------------------


def extract_cells(payload: Dict[str, object]) -> Dict[str, float]:
    """The comparable time cells of one record, keyed stably."""
    kind, figure = record_kind(payload)
    if kind == "perfbench":
        return {name: float(metric["value"])
                for name, metric in sorted(payload["metrics"].items())
                if metric.get("unit") in PERFBENCH_TIME_UNITS}
    data = payload.get("data")
    if data is None:
        raise CheckUsageError(
            "sweep record has no merged data (incomplete run?); "
            "re-run the sweep to completion before comparing")
    if figure == "fig16":
        return {"%s|%s|%s" % (bench, arch, tier): float(seconds)
                for bench, by_arch in sorted(data.items())
                for arch, by_tier in sorted(by_arch.items())
                for tier, seconds in sorted(by_tier.items())}
    if figure == "fig13":
        cells = {}
        for sweep in data:
            prefix = "%s|%s|%s" % (sweep.get("benchmark"),
                                   sweep.get("kernel"),
                                   "x".join(str(d) for d in
                                            sweep.get("block", [])))
            for result in sweep.get("results", []):
                if result.get("valid") and \
                        isinstance(result.get("seconds"), (int, float)):
                    cells["%s|%s" % (prefix, result.get("desc"))] = \
                        float(result["seconds"])
        return cells
    if figure == "fig17":
        return {"%s|%s" % (bench, label): float(seconds)
                for bench, by_label in sorted(data.items())
                for label, seconds in sorted(by_label.items())
                if isinstance(seconds, (int, float))}
    # table2 rows mix seconds with utilizations and byte counts whose
    # direction is not "lower is better"; gate only the runtime cell
    if figure == "table2":
        cells = {}
        for label, row in sorted(data.items()):
            if isinstance(row, dict):
                seconds = row.get("time_seconds")
                if isinstance(seconds, (int, float)):
                    cells["%s|time_seconds" % label] = float(seconds)
        return cells
    raise CheckUsageError("unknown sweep figure %r" % figure)


# -- comparison ---------------------------------------------------------------


@dataclass
class CellDelta:
    """One compared cell."""

    key: str
    baseline: Optional[float]
    new: Optional[float]
    #: new/baseline; None when either side is missing or baseline is 0
    ratio: Optional[float]
    #: "ok" | "regression" | "improvement" | "missing" | "added"
    status: str


@dataclass
class CheckReport:
    """The outcome of one baseline-vs-new comparison."""

    kind: str
    figure: str
    noise_band: float
    cells: List[CellDelta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[CellDelta]:
        return [c for c in self.cells if c.status == "regression"]

    @property
    def missing(self) -> List[CellDelta]:
        return [c for c in self.cells if c.status == "missing"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def summary(self) -> str:
        compared = [c for c in self.cells
                    if c.status not in ("missing", "added")]
        lines = ["check %s/%s: %d cell(s) compared, noise band ±%.1f%%" %
                 (self.kind, self.figure, len(compared),
                  100.0 * self.noise_band)]
        for warning in self.warnings:
            lines.append("  warning: %s" % warning)
        for cell in self.cells:
            if cell.status == "regression":
                lines.append(
                    "  REGRESSION %s: %.4e -> %.4e (%.1f%% slower)" %
                    (cell.key, cell.baseline, cell.new,
                     100.0 * (cell.ratio - 1.0)))
            elif cell.status == "missing":
                lines.append("  MISSING %s: present in baseline, absent "
                             "in new" % cell.key)
            elif cell.status == "improvement":
                lines.append(
                    "  improvement %s: %.4e -> %.4e (%.1f%% faster)" %
                    (cell.key, cell.baseline, cell.new,
                     100.0 * (1.0 - cell.ratio)))
            elif cell.status == "added":
                lines.append("  added %s (no baseline)" % cell.key)
        verdict = "PASS" if self.ok else \
            "FAIL (%d regression(s), %d missing)" % (len(self.regressions),
                                                     len(self.missing))
        lines.append("  %s" % verdict)
        return "\n".join(lines)


def compare_records(baseline: Dict[str, object], new: Dict[str, object],
                    noise_band: float = 0.05) -> CheckReport:
    """Diff two records; raises :class:`CheckUsageError` when they are
    not comparable (kind, schema, or architecture mismatch)."""
    kind_a = record_kind(baseline)
    kind_b = record_kind(new)
    if kind_a != kind_b:
        raise CheckUsageError(
            "records are not comparable: baseline is %s/%s, new is %s/%s"
            % (kind_a + kind_b))
    if kind_a[0] == "perfbench":
        # another seed draws other programs: comparable, but their pass
        # costs differ by more than run-to-run noise
        seeds = (baseline["perfbench"]["seed"], new["perfbench"]["seed"])
        warnings = [] if seeds[0] == seeds[1] else \
            ["perfbench seed differs: baseline %s vs new %s" % seeds]
    else:
        warnings = check_provenance(baseline, new)
    cells_a = extract_cells(baseline)
    cells_b = extract_cells(new)
    report = CheckReport(kind=kind_a[0], figure=kind_a[1],
                         noise_band=noise_band, warnings=warnings)
    for key in sorted(set(cells_a) | set(cells_b)):
        old = cells_a.get(key)
        current = cells_b.get(key)
        if old is None:
            report.cells.append(CellDelta(key, None, current, None,
                                          "added"))
            continue
        if current is None:
            report.cells.append(CellDelta(key, old, None, None,
                                          "missing"))
            continue
        ratio = current / old if old > 0 else None
        if ratio is not None and ratio > 1.0 + noise_band:
            status = "regression"
        elif ratio is not None and ratio < 1.0 - noise_band:
            status = "improvement"
        else:
            status = "ok"
        report.cells.append(CellDelta(key, old, current, ratio, status))
    return report


def check_files(baseline_path: str, new_path: str,
                noise_band: float = 0.05) -> CheckReport:
    """:func:`compare_records` over two files on disk."""
    return compare_records(load_record(baseline_path),
                           load_record(new_path), noise_band)
