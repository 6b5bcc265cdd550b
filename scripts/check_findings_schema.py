#!/usr/bin/env python3
"""Validate an ipl_sema --json report against
schema/findings.schema.json.

Hand-rolled validator covering exactly the subset of JSON Schema the
checked-in schema uses (type, const, enum, minimum, minLength, required,
additionalProperties, items) so CI needs nothing beyond the stdlib.

Usage: check_findings_schema.py REPORT.json [SCHEMA.json]
Also re-checks the report's errors/warnings counters against the
findings array, and that the findings are sorted and deduplicated on
(file, line, rule) — the byte-stability contract CI relies on.
"""

import json
import os
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
}


def fail(path, msg):
    sys.exit(f"schema violation at {path or '$'}: {msg}")


def validate(value, schema, path=""):
    t = schema.get("type")
    if t is not None:
        py = TYPES[t]
        ok = isinstance(value, py)
        if py is int:  # bool is an int subclass in Python
            ok = ok and not isinstance(value, bool)
        if not ok:
            fail(path, f"expected {t}, got {type(value).__name__}")
    if "const" in schema and value != schema["const"]:
        fail(path, f"expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(path, f"{value!r} not in {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        fail(path, f"{value} < minimum {schema['minimum']}")
    if "minLength" in schema and len(value) < schema["minLength"]:
        fail(path, f"length {len(value)} < minLength {schema['minLength']}")
    if t == "object":
        for key in schema.get("required", []):
            if key not in value:
                fail(path, f"missing required key {key!r}")
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(value) - set(props)
            if extra:
                fail(path, f"unexpected keys {sorted(extra)}")
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}")
    if t == "array" and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]")


def check_report_invariants(report):
    findings = report["findings"]
    errors = sum(1 for f in findings if f["severity"] == "error")
    warnings = len(findings) - errors
    if report["errors"] != errors or report["warnings"] != warnings:
        sys.exit(
            f"counter mismatch: header says {report['errors']} errors / "
            f"{report['warnings']} warnings, findings hold {errors} / {warnings}"
        )
    keys = [(f["file"], f["line"], f["rule"]) for f in findings]
    if keys != sorted(keys):
        sys.exit("findings are not sorted by (file, line, rule)")
    if len(keys) != len(set(keys)):
        sys.exit("findings contain (file, line, rule) duplicates")


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.strip())
    report_path = argv[1]
    schema_path = (
        argv[2]
        if len(argv) == 3
        else os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "schema",
            "findings.schema.json",
        )
    )
    with open(schema_path) as fh:
        schema = json.load(fh)
    with open(report_path) as fh:
        report = json.load(fh)
    validate(report, schema)
    check_report_invariants(report)
    print(
        f"{report_path}: valid ipl-findings/1 report from {report['tool']} "
        f"({report['errors']} errors, {report['warnings']} warnings)"
    )


if __name__ == "__main__":
    main(sys.argv)
