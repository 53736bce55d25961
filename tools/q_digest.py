"""Print Q_eps estimates over a fixed list of frames, points and radii.

Per case one line is printed: its name, `repr` of `Q_estimate` and of the
bracket, and the SHA-256 of the witness (w1, w2 and the point y, as float64
bytes).  Two runs, one per source tree, and a `diff` of their output show
which estimates a change moved, by how much, and whether any witness moved.
Standard library and phasestab (with the numpy it needs) only.

    python tools/q_digest.py [SRC_DIR]

SRC_DIR holds the phasestab package to run; it defaults to the src next to
this script's directory.  The cases are the five bundled fixtures at the
unit point along (1, ..., 1) and each radius of EPS, under the default
`QepsConfig`; the calls of acceptance criterion 4, drawn as that test draws
them, under its `QepsConfig(restarts=48)`; and MIX seeded Gaussian frames
from 2x3 to 5x11 under the default `QepsConfig`, with columns rescaled by up
to 10^±2, every fourth with its last column a multiple of its first, each
at a seeded point and radius.
"""

from __future__ import annotations

import hashlib
import sys
from importlib import resources
from pathlib import Path

EPS = (1e-9, 0.07, 0.3, 10.0)
MIX = 40


def _retrievable_frame(n, m, seed):
    """Criterion 4's unit-column Gaussian draw, redrawn until full spark."""
    import numpy as np

    from phasestab import Frame, full_spark

    while True:
        mat = np.random.default_rng(seed).standard_normal((n, m))
        mat /= np.linalg.norm(mat, axis=0)
        if full_spark(Frame(mat))[0]:
            return Frame(mat)
        seed += 10_000


def frames():
    """(name, frame, x, eps, QepsConfig) for every case, in order."""
    import numpy as np

    from phasestab import (Frame, QepsConfig, cli, delta_x, load_frame,
                           mercedes_benz_frame, omega_witness_point, tau)

    for name in cli.FIXTURES:
        frame = load_frame(str(resources.files("phasestab.fixtures") / f"{name}.json"))
        x = np.ones(frame.dim) / np.sqrt(frame.dim)
        for eps in EPS:
            yield f"fixture {name} eps={eps!r}", frame, x, eps, QepsConfig()

    cfg = QepsConfig(restarts=48)
    rng = np.random.default_rng(44)
    crit = [mercedes_benz_frame(), _retrievable_frame(2, 4, 41), _retrievable_frame(2, 5, 42)]
    for k, frame in enumerate(crit):
        eps = 0.5 * tau(frame)
        yield f"criterion4 {k} omega point", frame, omega_witness_point(frame, eps), eps, cfg
        for j in range(20):
            x = rng.standard_normal(frame.dim)
            x /= np.linalg.norm(x)
            yield f"criterion4 {k} x {j}", frame, x, 0.5 * delta_x(frame, x), cfg

    rng = np.random.default_rng(26)
    for i in range(MIX):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2 * n - 1, 2 * n + 2))
        mat = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-2.0, 2.0, m)
        dependent = i % 4 == 3
        if dependent:
            mat[:, -1] = rng.uniform(-2.0, 2.0) * mat[:, 0]
        x, eps = rng.standard_normal(n), float(10.0 ** rng.uniform(-3.0, 1.0))
        name = f"mix {i} {n}x{m}{' dependent' if dependent else ''}"
        yield name, Frame(mat), x, eps, QepsConfig()


def line(name, frame, x, eps, cfg) -> str:
    import numpy as np

    from phasestab import q_eps_estimate

    rep = q_eps_estimate(frame, x, eps, cfg)
    witness = hashlib.sha256(np.concatenate(rep.witness).tobytes())
    return (f"{name}: Q={rep.Q_estimate!r} bracket=({rep.bracket[0]!r}, {rep.bracket[1]!r}) "
            f"witness={witness.hexdigest()}")


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    for case in frames():
        print(line(*case))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
