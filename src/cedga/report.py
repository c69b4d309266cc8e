"""Deterministic machine-readable reports.

Every report carries the tool version and a digest of the raw inputs, and
fields are emitted in a fixed order so identical inputs produce
byte-identical reports.  ``hashlib`` and ``json`` are imported on use, so
``import cedga``, which loads this module for the version, loads neither.
"""

from __future__ import annotations

TOOL_NAME = "cedga"
VERSION = "0.1.0"


def input_digest(*texts: str) -> str:
    import hashlib

    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def make_report(command: str, digest: str, status: str, payload: dict) -> dict:
    report = {
        "tool": TOOL_NAME,
        "version": VERSION,
        "command": command,
        "input_sha256": digest,
        "status": status,
    }
    report.update(payload)
    return report


def report_json(report: dict) -> str:
    import json

    return json.dumps(report, indent=2) + "\n"
