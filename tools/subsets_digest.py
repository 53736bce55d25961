"""Print the subset verdicts and constants over a fixed list of frames.

Per frame one line is printed: its name, `Frame.rank()`, full spark and
the complement property (verdict and witness bitmask), `repr` of tau, and
exact omega and exact Delta (`repr` of the value and the witness bitmask).
A call that raises a phasestab error prints the error's class name in
place of its value.  Two runs, one per source tree, and a `diff` of their
output show which verdicts, witnesses and values a change moved.  Standard
library and phasestab (with the numpy it needs) only.

    python tools/subsets_digest.py [SRC_DIR]

SRC_DIR holds the phasestab package to run; it defaults to the src next to
this script's directory.  The frames come in five families, each name
starting with its family:

- fixture: the five bundled fixtures;
- gauss: seeded Gaussian n x (2n-1) frames with unit columns for
  n = 3..7, SEEDS per n, each clean and with its last column a copy of
  its first;
- scaled: COLUMN_SCALED seeded Gaussian frames, n 2..4 and m n+1..11,
  every third with its last column a copy of its first, each column
  scaled by 10^-8, 1 or 10^8;
- near: seeded Gaussian n x (2n-1) and n x (2n+1) frames for n = 2..4,
  with one column 1e-8 to 1e-13 off the span of n-1 others;
- huge: the 2x3 frame [[1e12, 0, 1], [0, 1, 0]], whose sigma_1 = 1e12
  sets the rank floor at 100, above its sigma_2 = 1.
"""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

SEEDS = 2
COLUMN_SCALED = 750


def frames():
    """(name, matrix) for every frame, in order."""
    import numpy as np

    from phasestab import cli, load_frame

    for name in cli.FIXTURES:
        path = resources.files("phasestab.fixtures") / f"{name}.json"
        yield f"fixture {name}", load_frame(str(path)).matrix

    for n in range(3, 8):
        for seed in range(SEEDS):
            mat = np.random.default_rng(100 * n + seed).standard_normal((n, 2 * n - 1))
            mat /= np.linalg.norm(mat, axis=0)
            yield f"gauss {n}x{2 * n - 1} seed {seed}", mat
            mat = mat.copy()
            mat[:, -1] = mat[:, 0]
            yield f"gauss {n}x{2 * n - 1} seed {seed} duplicated", mat

    rng = np.random.default_rng(36)
    for i in range(COLUMN_SCALED):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 12))
        mat = rng.standard_normal((n, m))
        if i % 3 == 0:
            mat[:, -1] = mat[:, 0]
        mat = mat * 10.0 ** (8 * rng.integers(-1, 2, size=m))
        yield f"scaled {i} {n}x{m}", mat

    rng = np.random.default_rng(813)
    for n in range(2, 5):
        for m in (2 * n - 1, 2 * n + 1):
            for offset in range(8, 14):
                mat = rng.standard_normal((n, m))
                j, *others = rng.choice(m, size=n, replace=False)
                basis = mat[:, others]
                normal = np.linalg.qr(basis, mode="complete")[0][:, -1]
                mat[:, j] = basis @ rng.standard_normal(n - 1) + 10.0**-offset * normal
                yield f"near {n}x{m} 1e-{offset}", mat

    yield "huge 2x3", np.array([[1e12, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _value(call) -> str:
    """The call's result: `repr` of a float, or (value, bitmask) of a verdict
    or a (value, witness, exact) triple, the bitmask None where there is no
    witness; or the class name of the phasestab error it raises."""
    from phasestab import PhasestabError

    try:
        result = call()
    except PhasestabError as exc:
        return type(exc).__name__
    if not isinstance(result, tuple):
        return repr(result)
    value, witness = result[:2]
    return f"({value!r}, {None if witness is None else witness.bits})"


def line(name, mat) -> str:
    from phasestab import Frame, complement_property, delta, full_spark, omega, tau

    frame = Frame(mat)
    return (f"{name}: rank={frame.rank()} full_spark={_value(lambda: full_spark(frame))} "
            f"complement={_value(lambda: complement_property(frame))} "
            f"tau={_value(lambda: tau(frame))} omega={_value(lambda: omega(frame, mode='exact'))} "
            f"delta={_value(lambda: delta(frame, mode='exact'))}")


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    for name, mat in frames():
        print(line(name, mat))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
