"""The CLI's output bytes, pinned as sha256 digests.

Every run here calls `cli.main` in this process: `check-all` on the default,
acceptance and seed-0 bundle configs and under each mutation, the seed-0
`export` bundle, and `demo-s1`.  A refactor must leave every digest and exit
code as it is.  Any digest change must be named in CHANGES.md with its
reason; when a change means to alter the bytes, regenerate the table once
with `PYTHONPATH=src python tests/test_digests.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from floerloops import cli

ACCEPTANCE = {"c": "1", "fibers": ["0", "1/3", "3/4"], "winding_bound": 3, "max_d": 4}
SEED_0_BUNDLE = {"c": "1/2", "fibers": ["0", "2/5"], "winding_bound": 4, "max_d": 4,
                 "twist": "constant"}
MUTATIONS = ("mu2-sign", "f1-zero", "pontryagin-compose", "flat-sign", "twisted-mc")

# (exit code, sha256 of the bytes) per run
DIGESTS = {
    "check-all default":
        (0, "c0f5ade4ba3f6b13795685e527e969d0fdec8aebf74dbc5bb82a4e88064fe241"),
    "check-all acceptance twist none":
        (0, "e9956eb7399806a703f698ac4ff0df2622c6a3f0ab65ab194f2f9d4ad4d418aa"),
    "check-all acceptance twist constant":
        (0, "d4171d168ecc32af29306e6a35e26645ca685b3a094f6be62d645301cdb8e7a5"),
    "export seed-0 bundle":
        (0, "d0626ec18ada711107239cea29e6db3b4d5c206f630925fa38fc6e999de8eff0"),
    "check-all seed-0 bundle":
        (0, "d9c873fda72de990260d4636023c4a202ceaa38d5e5cebf817033ca331c3bdc8"),
    "check-all --mutate mu2-sign":
        (1, "825f80920ea28bfeadc71651f08fbe0ac131f363337f4d97da1c69132cfcfd7c"),
    "check-all --mutate f1-zero":
        (1, "b6d98e77fc4f9f000d4cfaab3bb73b9d891f2d89e4e822176ef2d5f3807bb7db"),
    "check-all --mutate pontryagin-compose":
        (1, "825cec179df9f50c8c3e6ee8c34df3424eff0105144341045e596f9acd906aab"),
    "check-all --mutate flat-sign":
        (1, "431ffb8d53a27fdef644832e2b020868e0bc2ee51e1356bffa97139150ab3110"),
    "check-all --mutate twisted-mc":
        (1, "922f9eb5d7ec7a7b0776e7d6616e0c6b0865289f4de1dba9b028aae4d15f9a8b"),
    "demo-s1 default":
        (0, "6910e7d92b17d2f81bcb6044ab0c60fa0a2ddc14ecd342b405eb445d21a07409"),
}


def _run(*argv: str) -> tuple[int, bytes]:
    """The exit code and standard output of the CLI on `argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def _config(tmp: pathlib.Path, name: str, fields: dict) -> str:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps({"kind": "geometry_config", "schema_version": 1,
                                "twist": "none", **fields}))
    return str(path)


def outputs(tmp: pathlib.Path) -> dict[str, tuple[int, bytes]]:
    """Every pinned run's exit code and output bytes."""
    runs = {"check-all default": _run("check-all")}
    for twist in ("none", "constant"):
        cfg = _config(tmp, f"acceptance-{twist}", {**ACCEPTANCE, "twist": twist})
        runs[f"check-all acceptance twist {twist}"] = _run("check-all", "--config", cfg)
    bundle = tmp / "bundle.json"
    code, text = _run("export", "--config", _config(tmp, "seed-0", SEED_0_BUNDLE))
    bundle.write_bytes(text)
    runs["export seed-0 bundle"] = code, text
    runs["check-all seed-0 bundle"] = _run("check-all", "--config", str(bundle))
    for mutation in MUTATIONS:
        runs[f"check-all --mutate {mutation}"] = _run("check-all", "--mutate", mutation)
    runs["demo-s1 default"] = _run("demo-s1")
    return runs


def digests(tmp: pathlib.Path) -> dict[str, tuple[int, str]]:
    return {name: (code, hashlib.sha256(text).hexdigest())
            for name, (code, text) in outputs(tmp).items()}


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("FLOERLOOPS_SEED", raising=False)
    assert digests(tmp_path) == DIGESTS


if __name__ == "__main__":
    os.environ.pop("FLOERLOOPS_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (code, digest) in digests(pathlib.Path(tmp)).items():
            print(f'    "{name}":\n        ({code}, "{digest}"),')
