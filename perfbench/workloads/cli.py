"""``cli``: sequential ``python -m cedga.cli`` subprocesses, closed loop,
one client.

One pass runs every bundled corpus case, ``cedga corpus``, and
``validate``/``augment``/``surgery`` on documents generated at set-up from the
seed: serialized k = 6 surgery algebras, their base algebras and a valid
base augmentation of each.  Every invocation writes ``--json``; the check is
the exit code, a diagnostic fragment and the SHA-256 of the JSON report.
Corpus expectations and report digests are recorded in ``expected.json``;
reports on generated documents are rebuilt here from the oracle's results.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import oracle
from harness import PassResult, load_json, run_op

NAME = "cli"
MIN_PASSES = 3  # at least 100 invocations per run
POOLED_CHUNKS = False
CHILD_PROCESSES = True
DOCUMENTS = 6
CHORDS_PER_PAIR = 4
IMPORT_PROBES = 5
EXPECTED = load_json("expected.json")["cli"]
SUBCOMMANDS = ("validate", "augment", "surgery", "corpus")


def _report_sha(command: str, texts, status: str, payload: dict) -> str:
    """SHA-256 of the JSON report the CLI must write: fixed field order,
    two-space indent, trailing newline."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    report = {"tool": "cedga", "version": EXPECTED["version"], "command": command,
              "input_sha256": digest.hexdigest(), "status": status}
    report.update(payload)
    return hashlib.sha256((json.dumps(report, indent=2) + "\n").encode("utf-8")).hexdigest()


def _write(workdir: str, name: str, text: str) -> None:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
        handle.write(text)


def make_inputs(cedga, seed: int, workdir: str):
    """Copy the corpus and generate the seeded documents into ``workdir``;
    return the invocation list (label, argv, exit, fragment, report SHA)."""
    textio = importlib.import_module("cedga.textio")
    corpus_dir = os.path.join(os.path.dirname(cedga.__file__), "corpus")
    for name in EXPECTED["corpus_files"]:
        shutil.copyfile(os.path.join(corpus_dir, name), os.path.join(workdir, name))
    invocations = [("case", case["argv"], case["exit"], case["fragment"], case["json_sha256"])
                   for case in EXPECTED["cases"]]
    invocations.append(("corpus", ["corpus"], 0, EXPECTED["corpus"]["fragment"],
                        EXPECTED["corpus"]["json_sha256"]))
    rng = random.Random(seed)
    for i in range(DOCUMENTS):
        p = (2, 3)[i % 2]
        S = cedga.random_surgery_instance(6, CHORDS_PER_PAIR, rng.randrange(2 ** 31), p)
        base = S.base_ce()
        solutions = oracle.brute_force_augmentations(base)
        eb = rng.choice(solutions)
        cert = cedga.construct_surgery_augmentation(S, cedga.Augmentation(p, eb))
        extended = oracle.nonzero(cert.augmentation.values)
        if not oracle.vanishes(S.dga, extended):
            raise ValueError(f"document {i}: extension does not vanish on d")
        doc_text = textio.serialize_dga(textio.DgaDocument(S.dga, (), dict(S.roles)))
        base_text = textio.serialize_dga(base)
        aug_text = textio.serialize_values(p, eb)
        doc, base_doc, aug = f"doc{i}.txt", f"base{i}.txt", f"aug{i}.txt"
        _write(workdir, doc, doc_text)
        _write(workdir, base_doc, base_text)
        _write(workdir, aug, aug_text)
        invocations += [
            ("validate", ["validate", doc], 0,
             "valid: d^2 = 0, grading and action filtration hold",
             _report_sha("validate", [doc_text], "ok", {"violations": []})),
            ("augment", ["augment", base_doc], 0,
             f"{len(solutions)} augmentation(s) over F_{p}",
             _report_sha("augment", [base_text], "ok",
                         {"field": p, "count": len(solutions)})),
            ("surgery", ["surgery", doc, "--base-aug", aug], 0, "certificate verified",
             _report_sha("surgery", [doc_text, aug_text], "ok",
                         {"k": 6, "augmentation": dict(sorted(extended.items())),
                          "flags": [], "violations": []})),
        ]
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    src = os.path.dirname(os.path.dirname(cedga.__file__))
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=os.path.join(workdir, "tmp"))
    return {"invocations": invocations, "workdir": workdir, "env": env}


def _invoke(inputs, argv, timeout=120):
    return subprocess.run([sys.executable, *argv], cwd=inputs["workdir"],
                          env=inputs["env"], capture_output=True, text=True,
                          timeout=timeout, check=False)


def _check_invocation(tr, inputs, label, argv, exit_code, fragment, sha, samples):
    report = os.path.join(inputs["workdir"], "report.json")
    if os.path.exists(report):
        os.remove(report)
    t0 = time.perf_counter()
    proc = tr.call(f"cli.{label}", _invoke, inputs,
                   ["-m", "cedga.cli", *argv, "--json", "report.json"])
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    samples.setdefault(label, []).append(elapsed_ms)
    samples.setdefault("all", []).append(elapsed_ms)
    with open(report, "rb") as handle:
        written = hashlib.sha256(handle.read()).hexdigest()
    return proc.returncode == exit_code and fragment in proc.stdout and written == sha


def run_pass(cedga, inputs, tr) -> PassResult:
    result = PassResult()
    for label, argv, exit_code, fragment, sha in inputs["invocations"]:
        run_op(result, tr, "cli.invocation", f"cedga {' '.join(argv)}",
               _check_invocation, tr, inputs, label, argv, exit_code, fragment, sha,
               result.samples)
        result.lap()
    return result


def latency(samples: dict) -> dict:
    """p50 and p90 per CLI invocation over every pass of a run."""
    values = samples["all"]
    deciles = statistics.quantiles(values, n=10)
    return {"invocations": len(values), "latency_p50_ms": statistics.median(values),
            "latency_p90_ms": deciles[8]}


def layer_metrics(calls, self_s, result) -> dict:
    return {}


def run_metrics(inputs, samples: dict) -> dict:
    """Per-layer metrics from every invocation of the run, plus the time of
    a bare ``import cedga`` subprocess."""
    probes = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        proc = _invoke(inputs, ["-c", "import cedga"])
        probes.append((time.perf_counter() - t0) * 1000.0)
        if proc.returncode:
            raise RuntimeError(f"import cedga failed: {proc.stderr.strip()}")
    row = {"cli.import_ms": statistics.median(probes)}
    for sub in SUBCOMMANDS:
        row[f"cli.{sub}.p50_ms"] = statistics.median(samples[sub])
    lat = latency(samples)
    row["cli.latency_p50_ms"] = lat["latency_p50_ms"]
    row["cli.latency_p90_ms"] = lat["latency_p90_ms"]
    row["cli.invocations"] = lat["invocations"]
    return row
