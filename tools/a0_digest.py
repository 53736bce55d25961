"""Print a0 and Lambda_F over a fixed list of frames.

Per frame one line is printed: its name, `repr` of a0, of Lambda_F and of
`a0_scale`, and the `a0_is_positive` verdict.  Two runs, one per source
tree, and a `diff` of their output show which a0 and Lambda_F values a
change moved, by how much, and whether any verdict flipped.  Standard
library and phasestab (with the numpy it needs) only.

    python tools/a0_digest.py [SRC_DIR]

SRC_DIR holds the phasestab package to run; it defaults to the src next to
this script's directory.  The frames are the five bundled fixtures under
the default `A0Config`; the 200 frames of acceptance criterion 2, drawn as
that test draws them, under its `A0Config(restarts=8)`; and
MIX seeded Gaussian frames from 3x5 to 5x10 under the default `A0Config`,
every fourth with its last column a multiple of its first.
"""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

MIX = 40


def frames():
    """(name, frame, A0Config) for every frame, in order."""
    import numpy as np

    from phasestab import A0Config, Frame, cli, load_frame

    for name in cli.FIXTURES:
        path = resources.files("phasestab.fixtures") / f"{name}.json"
        yield f"fixture {name}", load_frame(str(path)), A0Config()

    cfg = A0Config(restarts=8)
    rng = np.random.default_rng(2024)
    count = 0
    while count < 200:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2 * n - 2, 2 * n + 3))
        if m < n:
            continue
        mat = np.random.default_rng(int(rng.integers(0, 2**31))).standard_normal((n, m))
        yield f"criterion2 {count} {n}x{m}", Frame(mat), cfg
        count += 1

    rng = np.random.default_rng(22)
    for i in range(MIX):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(2 * n - 1, 2 * n + 1))
        mat = rng.standard_normal((n, m))
        dependent = i % 4 == 3
        if dependent:
            mat[:, -1] = rng.uniform(-2.0, 2.0) * mat[:, 0]
        yield f"mix {i} {n}x{m}{' dependent' if dependent else ''}", Frame(mat), A0Config()


def line(name, frame, cfg) -> str:
    from phasestab import a0, a0_scale, lambdaF
    from phasestab.injectivity import a0_is_positive

    val = a0(frame, cfg)[0]
    return (f"{name}: a0={val!r} lambdaF={lambdaF(frame)[0]!r} a0_scale={a0_scale(frame)!r} "
            f"positive={a0_is_positive(frame, val)}")


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    for name, frame, cfg in frames():
        print(line(name, frame, cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
