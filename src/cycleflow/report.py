"""Suite reports and their canonical serialisations.

The JSON form is canonical: object keys sorted, floats printed with 17
significant digits (lossless for float64), non-finite floats encoded as
the strings "NaN"/"Infinity"/"-Infinity", no whitespace.  Identical
inputs therefore serialise to identical bytes, which CI can diff.
Timing is deliberately kept out of the canonical document and shown
only in the text rendering; it is the one field honest reruns cannot
reproduce.
"""

import io
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import OutputError

SCHEMA = "cycleflow/1"


def _format_float(x):
    if x != x:
        return '"NaN"'
    if x == float("inf"):
        return '"Infinity"'
    if x == float("-inf"):
        return '"-Infinity"'
    return "%.17g" % x


def _canon(value, out):
    if value is None:
        out.write("null")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        out.write("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.write(str(int(value)))
    elif isinstance(value, Fraction):
        # exact values stay exact in reports
        out.write('"%s"' % value)
    elif isinstance(value, (float, np.floating)):
        out.write(_format_float(float(value)))
    elif isinstance(value, str):
        out.write(_json_string(value))
    elif isinstance(value, dict):
        out.write("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.write(",")
            if not isinstance(key, str):
                raise TypeError("report keys must be strings, got %r" % (key,))
            out.write(_json_string(key))
            out.write(":")
            _canon(value[key], out)
        out.write("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.write("[")
        for i, item in enumerate(seq):
            if i:
                out.write(",")
            _canon(item, out)
        out.write("]")
    else:
        raise TypeError("cannot canonically serialise %r" % type(value).__name__)


# a quote, a backslash and each control character, escaped; nothing else
_STRING_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\",
                   **{c: "\\u%04x" % c for c in range(0x20)}}


def _json_string(s):
    return '"' + s.translate(_STRING_ESCAPES) + '"'


def canonical_json(doc):
    """Serialise a document to canonical JSON text."""
    out = io.StringIO()
    _canon(doc, out)
    return out.getvalue()


@dataclass
class CheckResult:
    """One verification check: ``value comparator threshold`` must hold."""

    name: str
    value: float
    threshold: float
    comparator: str = "<="
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.comparator not in ("<=", ">="):
            raise ValueError("comparator must be <= or >=")
        v = float(self.value)
        t = float(self.threshold)
        self.passed = v <= t if self.comparator == "<=" else v >= t

    def to_document(self):
        return {
            "name": self.name,
            "value": _maybe_exact(self.value),
            "threshold": float(self.threshold),
            "comparator": self.comparator,
            "passed": bool(self.passed),
        }


def _maybe_exact(value):
    if isinstance(value, Fraction):
        return value
    return float(value)


@dataclass
class SuiteReport:
    kind: str
    model: dict
    config: dict
    checks: list
    details: dict = field(default_factory=dict)
    timing_s: float = None
    command: str = "verify"

    @property
    def overall_pass(self):
        # a report with no checks has shown nothing, so it cannot pass
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_document(self):
        """Canonical document; timing intentionally excluded so equal
        runs serialise to equal bytes."""
        return {
            "schema": SCHEMA,
            "command": self.command,
            "kind": self.kind,
            "model": self.model,
            "config": self.config,
            "checks": [c.to_document() for c in self.checks],
            "details": self.details,
            "overall_pass": self.overall_pass,
        }


def to_csv(report):
    """Per-check rows only: name, value, threshold, comparator, passed."""
    lines = ["name,value,threshold,comparator,passed"]
    for c in report.checks:
        value = c.value if isinstance(c.value, Fraction) else "%.17g" % float(c.value)
        lines.append("%s,%s,%s,%s,%s" % (
            c.name, value, "%.17g" % float(c.threshold), c.comparator,
            "pass" if c.passed else "fail"))
    return "\n".join(lines) + "\n"


def _fmt_value(value):
    if isinstance(value, Fraction):
        return str(value)
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    return "%.6g" % value


def to_text(report):
    lines = []
    model = report.model
    head = "%s %s %s" % (report.command, report.kind,
                         model.get("source") or "")
    lines.append(head.rstrip())
    lines.append("model hash %s, size %d" % (model["hash"][:12], model["size"]))
    cfg = ", ".join("%s=%s" % (k, report.config[k]) for k in sorted(report.config))
    lines.append("config: %s" % cfg)
    lines.append("")
    width = max((len(c.name) for c in report.checks), default=4)
    for c in report.checks:
        lines.append("%-*s  %12s %s %-12s %s" % (
            width, c.name, _fmt_value(c.value), c.comparator,
            _fmt_value(c.threshold), "pass" if c.passed else "FAIL"))
    lines.append("")
    for key in sorted(report.details):
        lines.append("%s: %s" % (key, _detail_text(report.details[key])))
    status = "PASS" if report.overall_pass else "FAIL"
    if report.timing_s is not None:
        lines.append("overall: %s (%.3f s)" % (status, report.timing_s))
    else:
        lines.append("overall: %s" % status)
    return "\n".join(lines) + "\n"


def _detail_text(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_detail_text(v) for v in value) + "]"
    if isinstance(value, float):
        return _fmt_value(value)
    if isinstance(value, dict):
        return "{" + ", ".join(
            "%s: %s" % (k, _detail_text(value[k])) for k in sorted(value)) + "}"
    return str(value)


def render(report, output_format):
    if output_format == "json":
        return canonical_json(report.to_document()) + "\n"
    if output_format == "csv":
        return to_csv(report)
    if output_format == "text":
        return to_text(report)
    raise ValueError("unknown output format %r" % (output_format,))


def emit_report(report, output_format="text", path=None, stream=None):
    """Render and deliver a report; returns the process exit code
    (0 pass, 1 any check failed).  The report is written even when it
    fails; only an unwritable destination raises."""
    text = render(report, output_format)
    if path is None:
        if stream is None:
            import sys
            stream = sys.stdout
        stream.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(str(exc)) from exc
    return 0 if report.overall_pass else 1
