"""The three benchmark workloads: what one op runs and how its verdict is
checked.

An op is a list of steps; each step runs in its own fresh interpreter
(`opproc.py`), one after another.  `prepare` writes the op's input files
into the run's work directory and returns the steps; `gate` returns None
when an op's outputs are correct, else the reason it failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

CHECK_NAMES = ("path-model", "ainfty", "tw-dg", "fundamental-chains", "functor")
ORACLE_NAMES = ("mu2-raster-oracle", "maslov-oracle@rho=1", "maslov-oracle@rho=2",
                "maslov-oracle@rho=4", "rescaling-invariance")

# bundle-roundtrip geometry family: c and the second fibre are drawn by
# index from these lists (lengths coprime, so seeds cover all 35 pairs).
# Every member has two fibres, w <= 4 and d <= 4, so the tuple counts are
# the same for every seed.  Seed 0 gives c = 1/2, fibres 0 and 2/5.
BUNDLE_C = ("1/2", "1/3", "2/3", "3/4", "3/5")
BUNDLE_FIBRE = ("2/5", "1/3", "1/2", "2/3", "1/4", "3/4", "3/5")


def geometry_config(c: str, fibers: list[str], winding: int, max_d: int, twist: str) -> dict:
    return {"kind": "geometry_config", "schema_version": 1, "c": c, "fibers": fibers,
            "winding_bound": winding, "max_d": max_d, "twist": twist}


def bundle_geometry(seed: int) -> dict:
    return geometry_config(BUNDLE_C[seed % len(BUNDLE_C)],
                           ["0", BUNDLE_FIBRE[seed % len(BUNDLE_FIBRE)]], 4, 4, "constant")


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@dataclass(frozen=True)
class Step:
    kind: str  # "cli" or "oracle"
    argv: tuple[str, ...] = ()
    out_file: str | None = None  # output written by the step itself (--out)


def _prepare_acceptance(workdir: str, seed: int) -> list[Step]:
    cfg = _write_json(os.path.join(workdir, "acceptance.json"),
                      geometry_config("1", ["0", "1/3", "3/4"], 3, 4, "none"))
    return [Step("cli", ("check-all", "--config", cfg))]


def _prepare_bundle(workdir: str, seed: int) -> list[Step]:
    cfg = _write_json(os.path.join(workdir, "geometry.json"), bundle_geometry(seed))
    bundle = os.path.join(workdir, "bundle.json")
    return [Step("cli", ("export", "--config", cfg, "--out", bundle), out_file=bundle),
            Step("cli", ("check-all", "--config", bundle))]


def _prepare_oracle(workdir: str, seed: int) -> list[Step]:
    return [Step("oracle")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[str, int], list[Step]]
    expected: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload("acceptance-3fibre",
             "check-all on c=1, fibres 0, 1/3, 3/4, w<=3, d<=4: 612k cylinder tuples, "
             "583k of them d=4 and zero by arity",
             _prepare_acceptance, CHECK_NAMES),
    Workload("bundle-roundtrip",
             "export then check-all from the JSON bundle: table-backed mu, the JSON writer "
             "and reader, twist constant and a seeded rational c",
             _prepare_bundle, CHECK_NAMES),
    Workload("oracle-sweep",
             "raster oracle at (192, 384) plus Maslov oracle and structure constants at "
             "rho 1, 2, 4: the only workload that reaches the numeric kernel",
             _prepare_oracle, ORACLE_NAMES),
)}


def step_output(step: Step, result: dict) -> bytes:
    """The bytes a step produced: its --out file, else its standard output."""
    if step.out_file is not None:
        try:
            with open(step.out_file, "rb") as fh:
                return fh.read()
        except OSError:
            return b""
    return result.get("stdout", "").encode()


def gate(workload: Workload, steps: list[Step], results: list[dict],
         outputs: list[bytes], reference: list[str] | None) -> str | None:
    """Why an op failed, or None.  `reference` is the output digests of the
    run's first op; every later op must reproduce them byte for byte."""
    for step, res in zip(steps, results):
        if "crash" in res:
            return f"{step.argv or step.kind} crashed: {res['crash'].splitlines()[-1]}"
        if res.get("exit_code") != 0:
            return f"{step.argv or step.kind} exited {res.get('exit_code')}"
    final = outputs[-1]
    try:
        rows = json.loads(final)["reports"]
    except (ValueError, KeyError, TypeError):
        rows = None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return "the verdict is not a JSON report"
    bad = [r.get("name") for r in rows if r.get("status") != "pass"]
    if bad:
        return f"non-pass rows: {bad}"
    missing = set(workload.expected) - {r.get("name") for r in rows}
    if missing:
        return f"expected checks missing: {sorted(missing)}"
    if any(not out for out in outputs):
        return "a step wrote no output"
    if reference is not None and digests(outputs) != reference:
        return "output bytes differ from the run's first op"
    return None


def digests(outputs: list[bytes]) -> list[str]:
    return [hashlib.sha256(out).hexdigest() for out in outputs]
