"""The benchmark's workloads: spec files to generate, one pass of CLI commands,
and the ground truth each command's output is checked against.

Every spec file is produced by the CLI's own ``zoo`` and ``construct``
commands, so the program under test only ever reads generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

# label -> CLI arguments that write <label>.spec ("@x" names the spec file x).
# Dependencies come before the specs built from them.
SPECS = {
    "sut3": ["zoo", "sut", "--n", "3", "--domain", "fp 2"],
    "sut5": ["zoo", "sut", "--n", "5", "--domain", "fp 2"],
    "z8": ["zoo", "two-z-2k", "--k", "3"],
    "m2z8": ["construct", "elementary", "@z8", "--n", "2"],
    "grass3": ["zoo", "grassmann-star", "--k", "3", "--domain", "fp 5"],
    "nagata23": ["zoo", "truncated-nagata", "--k", "2", "--p", "3"],
    "nagata33": ["zoo", "truncated-nagata", "--k", "3", "--p", "3"],
    "grass2": ["zoo", "grassmann-star", "--k", "2", "--domain", "fp 3"],
    "m2grass2": ["construct", "elementary", "@grass2", "--n", "2"],
}

# Nilpotency index of each ring (T3.18 "observed" for report, the
# "nilpotency" verdict for analyze), from the zoo docstrings.
NILPOTENCY_INDEX = {
    "sut3": 3,
    "sut5": 5,
    "m2z8": 3,
    "grass3": 4,
    "nagata23": 5,
    "nagata33": 7,
    "m2grass2": 3,
}

ORACLE_ARGS = ["oracle", "lemma-3-5", "--cyclic", "4", "--supp", "0,1,2,3",
               "--r", "2", "--exhaustive"]


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple      # spec labels to generate, dependencies first
    commands: tuple   # (kind, label) per command of one pass
    nominal_s: float  # seconds per pass child; fixes how many fit in --seconds

    def argv(self, kind, label, spec_dir, seed):
        if kind == "oracle":
            return list(ORACLE_ARGS)
        path = os.path.join(spec_dir, f"{label}.spec")
        return [kind, "--json", "--seed", str(seed), path]

    def parsed_specs(self):
        """The spec files that set-up parses and validates."""
        return [label for kind, label in self.commands if kind != "oracle"]


# nominal_s: one pass child, set-up included, measured on a 2-vCPU Intel Xeon.
# It stays fixed so both sides of a comparison run the same passes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-zoo", ("sut5", "z8", "m2z8", "grass3", "nagata23"),
                 (("report", "sut5"), ("report", "m2z8"), ("report", "grass3"),
                  ("report", "nagata23")), 14.0),
        Workload("analyze-enum", ("grass2", "m2grass2"),
                 (("analyze", "m2grass2"),), 12.0),
        Workload("oracle-words", (), (("oracle", "cyclic4"),), 4.5),
        Workload("report-wide", ("nagata33",), (("report", "nagata33"),), 8.5),
        # Harness self-test only; not a benchmark workload.
        Workload("tiny", ("sut3",), (("report", "sut3"),), 0.5),
    )
}


def generate_specs(cli_main, workload, spec_dir):
    """Write the workload's spec files with the CLI's own generators."""
    os.makedirs(spec_dir, exist_ok=True)
    for label in workload.specs:
        args = [
            os.path.join(spec_dir, a[1:] + ".spec") if a.startswith("@") else a
            for a in SPECS[label]
        ]
        out = os.path.join(spec_dir, f"{label}.spec")
        if cli_main(args + ["--out", out]) != 0:
            raise RuntimeError(f"generating {label}.spec failed")


def _nil_field(text):
    """(status, index) from a NilVerdict repr such as 'NilVerdict(PROVED, index=3, ...)'."""
    inner = text[text.index("(") + 1:text.rindex(")")]
    bits = [b.strip() for b in inner.split(",")]
    index = next((int(b[6:]) for b in bits if b.startswith("index=")), None)
    return bits[0], index


def judge(kind, label, code, error, out):
    """Check one command's outcome.

    Returns (failed, capped, correct, digest_item).  A command fails if it
    raised, exited 3 (input error) or 1 (a FAIL check, a refutation or an
    oracle disagreement), or contradicts the ground truth; ``correct`` is
    False only for a missing output or a ground-truth contradiction.
    """
    item = {"label": label, "exit": code}
    if error is not None or code == 3:
        item["error"] = error
        return True, 0, False, item
    try:
        if kind == "report":
            report = json.loads(out)
            checks = report["checks"]
            item["checks"] = [
                [c["id"], c["status"], c["bound"], c["observed"]] for c in checks
            ]
            capped = sum(c["status"] == "CAPPED" for c in checks)
            t318 = next(c for c in checks if c["id"] == "T3.18")
            correct = t318["observed"] == NILPOTENCY_INDEX[label]
        elif kind == "analyze":
            res = json.loads(out)
            verdicts = {k: res[k] for k in ("nil", "nilpotency", "bounded_nil_index")}
            verdicts["component_nil"] = res["component_nil"]
            item["verdicts"] = verdicts
            fields = [_nil_field(v) for v in verdicts.values() if isinstance(v, str)]
            fields += [_nil_field(v) for v in res["component_nil"].values()]
            capped = sum(status == "CAPPED" for status, _ in fields)
            nil, nilpotency, bounded = fields[:3]
            correct = (
                nil[0] == "PROVED"
                and nilpotency == ("PROVED", NILPOTENCY_INDEX[label])
                and bounded == ("PROVED", NILPOTENCY_INDEX[label])
            )
        else:
            lines = out.splitlines()
            item["forced_zero"] = sum(line.endswith("FORCED_ZERO (both)") for line in lines)
            item["decomposed"] = sum(" cuts=" in line for line in lines)
            capped = 0
            correct = lines[-1] == "disagreements: 0" and code == 0
    except (ValueError, KeyError, StopIteration, IndexError) as exc:
        item["error"] = f"unreadable output: {exc!r}"
        return True, 0, False, item
    failed = code == 1 or not correct
    return failed, capped, correct, item


def digest(items):
    """Hash of the verdict fields of one pass; timings are never included."""
    text = json.dumps(items, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
