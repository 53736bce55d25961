"""Digest the CLI's output over a fixed list of recipes.

Each recipe runs in-process through `phasestab.cli.main`.  Per recipe one
line is printed: the recipe, its exit code and the SHA-256 of its stdout,
of its stderr and of each file it wrote.  Two runs, one per source tree,
and a `diff` of their output show whether a change moved any byte.
Standard library and phasestab only.

    python tools/cli_digest.py [SRC_DIR]

SRC_DIR holds the phasestab package to run; it defaults to the src next to
this script's directory.  A recipe is a command line after `phasestab`;
`{tmp}` stands for a fresh empty directory, and a leading
`PHASESTAB_OUTDIR={tmp}` sets that variable for the run.  Files written
under `{tmp}` are listed by name, and the directory's path reads `{tmp}`
again in stdout and stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

X = {"mb3": "0.6,0.8", "basis2": "0.6,0.8", "basis3": "0.6,0.48,0.64",
     "repeated": "0.6,0.8", "gauss_4x11": "0.5,0.5,0.5,0.5"}
SIMULATE = "simulate --fixture mb3 --x=0.6,0.8 --sigma 0.01 --trials 20"

RECIPES = [
    *(f"{cmd} --fixture {name}" for name in X for cmd in ("certify", "constants")),
    *(f"crlb --fixture {name} --x={x} --sigma 0.1" for name, x in X.items()),
    *(f"stability --fixture {name} --x={X[name]} --eps 0.07"
      for name in ("mb3", "gauss_4x11", "basis2", "basis3", "repeated")),
    *(f"stability --fixture {name} --x={X[name]} --eps {eps}"
      for name in ("mb3", "gauss_4x11") for eps in ("1e-9", "10")),
    "certify --fixture mb3 --out {tmp}/cert.json",
    SIMULATE,
    SIMULATE + " --out {tmp}/sim.json --csv-out {tmp}/sim.csv",
    "PHASESTAB_OUTDIR={tmp} " + SIMULATE,
    "PHASESTAB_OUTDIR={tmp} " + SIMULATE + " --out {tmp}/explicit.json",
    *(f"random-study --study {study} --seed 9" for study in (
        "minimal --n-list 3,4,5,6 --trials 3",
        "tau --n-list 3,4,5 --k 2 --trials 4",
        "redundancy --n-list 2,3,4 --trials 3",
        "redundancy --n-list 3,8 --trials 2 --subset-budget 128",
        "minimal --n-list 3,3 --trials 2",
    )),
    # Delta and omega 1.8e-10 apart, within the Gram route's rounding
    "random-study --study minimal --n-list 6 --trials 2 --seed 1660507856",
    "PHASESTAB_OUTDIR={tmp} random-study --study tau --n-list 3 --trials 2",
    # error cases: exit 2 with a message on stderr and nothing on stdout
    "certify",
    "stability --fixture mb3 --x=abc --eps 0.1",
    "crlb --fixture mb3 --x=1,2,3 --sigma 0.1",
    "certify --fixture mb3 --seed 9223372036854775808",
    "certify --fixture mb3 --out {tmp}",  # an output path that is a directory
    "constants --fixture mb3 --subset-budget 0",
    "random-study --study minimal --n-list 3,x --trials 1",
    "random-study --study redundancy --n-list 3 --trials 1 --r0 inf",
    "crlb --fixture mb3 --x=0.6,0.8 --sigma 0",
    "simulate --fixture mb3 --x=0.6,0.8 --sigma -1 --trials 5",
    "simulate --fixture mb3 --x=0.6,0.8 --sigma 0.1 --trials 0",
    # help text
    "--help",
    *(f"{cmd} --help" for cmd in (
        "certify", "constants", "stability", "crlb", "simulate", "random-study")),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(recipe: str) -> tuple[int, str, str, dict[str, bytes]]:
    """Run one recipe through `cli.main`: (exit code, stdout, stderr,
    {file name: bytes} for each file written under `{tmp}`), with `{tmp}`
    for the directory's path in stdout and stderr."""
    from phasestab import cli  # here, so that main can put SRC_DIR first

    with tempfile.TemporaryDirectory() as tmp:
        words = recipe.replace("{tmp}", tmp).split()
        saved = dict(os.environ)
        os.environ.pop("PHASESTAB_OUTDIR", None)
        os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
        if words[0].startswith("PHASESTAB_OUTDIR="):
            os.environ["PHASESTAB_OUTDIR"] = words.pop(0).partition("=")[2]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(words)
        finally:
            os.environ.clear()
            os.environ.update(saved)
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
        out, err = (buf.getvalue().replace(tmp, "{tmp}") for buf in (out, err))
    return code, out, err, files


def digest(recipe: str) -> str:
    """The recipe's line without the recipe: exit code, stdout, stderr and
    `name=sha` for each written file."""
    code, out, err, files = run(recipe)
    parts = [f"exit={code}", f"stdout={sha256(out.encode())}", f"stderr={sha256(err.encode())}"]
    parts += [f"{name}={sha256(data)}" for name, data in files.items()]
    return " ".join(parts)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    for recipe in RECIPES:
        print(f"{recipe}: {digest(recipe)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
