"""Run one ``allostery`` command in-process with the package's layers traced.

Usage: ``python3 bench/traced.py SPANS.json -- <allostery arguments>``

Public functions and methods of ``wreath``, ``forge``, ``dynamics``,
``certificates`` and ``cli`` are wrapped at the sites they are looked up
from (see :func:`install`), the command runs through ``allostery.cli.main`` with
its stdout passed through unchanged, and the spans and exact counts are
written to SPANS.json when the command ends.  The exit code is the
command's own.

Per-state inner calls (``_PreparedAction.apply``, ``WreathElement.__mul__``)
are not wrapped: ``dynamics.table_states`` plus ``dynamics.brute_fixed_states``
stand for the first and ``wreath.word_letters`` for the second.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from collections import Counter
from typing import Dict, List, Sequence

from tracer import Span, Tracer, self_times

# Span names; each becomes a ``<name>_s`` self-time metric.
LAYER_SPANS = (
    "wreath.ball",
    "wreath.word_element",
    "wreath.parse_element",
    "forge.assign",
    "dynamics.table",
    "dynamics.brute_fixed",
    "dynamics.level_orbit",
    "dynamics.window_orbit",
    "dynamics.window_apply",
    "dynamics.witness",
    "certificates.criterion",
    "certificates.transitivity",
    "certificates.non_af",
    "certificates.translate_closure",
    "certificates.atoms",
    "certificates.transporter",
    "certificates.castle_parse",
    "certificates.audit",
    "certificates.check_criterion",
    "certificates.check_report",
    "certificates.check_comparison",
    "certificates.check_audit",
    "cli.load",
    "cli.emit",
    "cli.other",
)

# Exact counts kept by the counters below.
LAYER_COUNTS = (
    "wreath.ball_elements",
    "wreath.word_letters",
    "forge.data",
    "forge.states_total",
    "dynamics.table_requests",
    "dynamics.tables_built",
    "dynamics.table_states",
    "dynamics.brute_fixed_states",
    "dynamics.level_orbit_states",
    "dynamics.window_orbit_states",
    "dynamics.window_apply_calls",
    "certificates.translates",
    "certificates.atoms",
    "cli.emit_bytes",
)

ROOT_SPAN = "cli.other"


def _count_len(key):
    def hook(counts, args, kwargs, result):
        counts[key] += len(result)

    return hook


def _count_size(key):
    def hook(counts, args, kwargs, result):
        counts[key] += result.size

    return hook


def _count_letters(counts, args, kwargs, result):
    counts["wreath.word_letters"] += len(args[1])


def _count_forged(counts, args, kwargs, result):
    counts["forge.data"] += len(result)
    counts["forge.states_total"] += sum(dat.index() for dat in result)


def _count_brute(counts, args, kwargs, result):
    counts["dynamics.brute_fixed_states"] += args[0].size


def _table_counter():
    """A table request is a build the first time its (level, generator)
    pair is asked for, and a reuse after that."""
    requested = set()

    def hook(counts, args, kwargs, result):
        level, g = args[0], args[1]
        counts["dynamics.table_requests"] += 1
        if (level, g) not in requested:
            requested.add((level, g))
            counts["dynamics.tables_built"] += 1
            counts["dynamics.table_states"] += level.size

    return hook


def _count_apply(counts, args, kwargs, result):
    counts["dynamics.window_apply_calls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap each layer's functions at every site the package looks them up."""
    # The package re-exports the function forge under the module's name.
    forge = importlib.import_module("allostery.forge")
    from allostery import certificates, cli, dynamics, wreath

    def on_prepare(counts, args, kwargs, result):
        # Window.prepare(x).apply is the per-element action; its class is
        # found from the returned object and wrapped on first use.
        action = type(result)
        if not getattr(action.apply, "__wrapped__", None):
            tracer.wrap(action, "apply", "dynamics.window_apply", _count_apply)

    emit_json = types.SimpleNamespace(**{k: getattr(json, k) for k in json.__all__})
    tracer.replace(cli, "json", emit_json)

    sites = [
        (wreath.WreathGroup, "ball", "wreath.ball", _count_len("wreath.ball_elements")),
        (wreath.WreathGroup, "word_element", "wreath.word_element", _count_letters),
        (wreath, "parse_element", "wreath.parse_element", None),
        (forge, "parse_element", "wreath.parse_element", None),
        (certificates, "assign_primes", "forge.assign", None),
        (forge.PrimeAssignment, "forge_all", "forge.assign", _count_forged),
        (dynamics.FiniteLevel, "table", "dynamics.table", _table_counter()),
        (dynamics.FiniteLevel, "brute_fixed_indices", "dynamics.brute_fixed", _count_brute),
        (dynamics.FiniteLevel, "orbit", "dynamics.level_orbit",
         _count_size("dynamics.level_orbit_states")),
        (dynamics.Window, "orbit", "dynamics.window_orbit",
         _count_size("dynamics.window_orbit_states")),
        (dynamics.Window, "prepare", "dynamics.window_apply", on_prepare),
        (certificates, "stabilizer_witness", "dynamics.witness", None),
        (cli, "verify_criterion", "certificates.criterion", None),
        (certificates, "build_criterion", "certificates.criterion", None),
        (certificates, "certify_transitive", "certificates.transitivity", None),
        (cli, "non_af_report", "certificates.non_af", None),
        (certificates, "translate_closure", "certificates.translate_closure",
         _count_len("certificates.translates")),
        (certificates, "boolean_atoms", "certificates.atoms", _count_len("certificates.atoms")),
        (cli, "comparison_certificate", "certificates.transporter", None),
        (cli, "parse_castle_file", "certificates.castle_parse", None),
        (cli, "audit_castle", "certificates.audit", None),
        (certificates, "audit_castle", "certificates.audit", None),
        (cli, "check_criterion_certificate", "certificates.check_criterion", None),
        (certificates, "check_criterion_certificate", "certificates.check_criterion", None),
        (cli, "check_non_af_report", "certificates.check_report", None),
        (cli, "check_comparison_certificate", "certificates.check_comparison", None),
        (certificates, "check_comparison_certificate", "certificates.check_comparison", None),
        (cli, "check_castle_audit", "certificates.check_audit", None),
        (cli, "_load_json", "cli.load", None),
        (cli, "_emit_json", "cli.emit", None),
        (cli, "_emit_text", "cli.emit", None),
        (emit_json, "dumps", "cli.emit", None),
    ]
    for owner, attr, name, count in sites:
        tracer.wrap(owner, attr, name, count)


class _CountingStdout:
    """Passes text through to the real stdout and counts its UTF-8 bytes."""

    def __init__(self, real, counts: Counter):
        self.real = real
        self.counts = counts

    def write(self, text: str) -> int:
        self.counts["cli.emit_bytes"] += len(text.encode("utf-8"))
        return self.real.write(text)

    def flush(self) -> None:
        self.real.flush()


def run(argv: Sequence[str], tracer: Tracer) -> int:
    """Run one CLI command under the tracer, restoring everything afterwards."""
    from allostery import cli

    real = sys.stdout
    install(tracer)
    sys.stdout = _CountingStdout(real, tracer.counts)
    try:
        idx = tracer.open(ROOT_SPAN)
        try:
            return cli.main(list(argv))
        finally:
            tracer.close(idx)
    finally:
        sys.stdout = real
        tracer.restore()


def layer_metrics(records: List[dict]) -> Dict[str, float]:
    """Self times and counts summed over traced commands, plus the ratios."""
    seconds: Dict[str, float] = dict.fromkeys(LAYER_SPANS, 0.0)
    counts: Counter = Counter(dict.fromkeys(LAYER_COUNTS, 0))
    for rec in records:
        spans = [Span(**s) for s in rec["spans"]]
        for name, value in self_times(spans).items():
            seconds[name] += value
        counts.update(rec["counts"])
    out: Dict[str, float] = {f"{name}_s": value for name, value in seconds.items()}
    out.update(counts)
    requests = counts["dynamics.table_requests"]
    out["dynamics.table_reuse_ratio"] = (
        (requests - counts["dynamics.tables_built"]) / requests if requests else 0.0
    )
    translates = counts["certificates.translates"]
    out["certificates.atom_ratio"] = (
        counts["certificates.atoms"] / translates if translates else 0.0
    )
    return out


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <allostery arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    code = run(argv[2:], tracer)
    record = {
        "spans": [s.to_dict() for s in tracer.spans],
        "unclosed": len(tracer.unclosed()),
        "counts": dict(tracer.counts),
    }
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
