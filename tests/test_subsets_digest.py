import importlib.util
from pathlib import Path

import numpy as np

from phasestab import delta, mercedes_benz_frame, omega, tau

TOOL = Path(__file__).resolve().parent.parent / "tools" / "subsets_digest.py"
spec = importlib.util.spec_from_file_location("subsets_digest", TOOL)
subsets_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(subsets_digest)


def test_frames_come_in_six_families():
    names = [name for name, _ in subsets_digest.frames()]
    assert len(names) == len(set(names))
    families = [name.split()[0] for name in names]
    gauss = 5 * subsets_digest.SEEDS * 2
    assert families == (["fixture"] * 5 + ["gauss"] * gauss + ["scaled"] * subsets_digest.COLUMN_SCALED
                        + ["near"] * 36 + ["huge", "coplanar"])
    assert names[5] == "gauss 3x5 seed 0" and names[6] == "gauss 3x5 seed 0 duplicated"


def test_line_holds_every_verdict_and_constant():
    mb3 = mercedes_benz_frame()
    (d, d_mask, _), (w, w_mask, _) = delta(mb3), omega(mb3)
    assert subsets_digest.line("mb3", mb3.matrix) == (
        f"mb3: rank=2 full_spark=(True, None) complement=(True, None) tau={tau(mb3)!r} "
        f"omega=({w!r}, {w_mask.bits}) delta=({d!r}, {d_mask.bits})")


def test_a_raised_error_prints_its_name():
    mat = np.array([[1e12, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert subsets_digest.line("huge", mat) == (
        "huge: rank=1 full_spark=(False, 3) complement=(False, 0) tau=NotAFrameError "
        "omega=(0.0, 0) delta=(0.0, 2)")


def test_prints_one_line_per_frame(monkeypatch, capsys):
    frames = [("mb3", mercedes_benz_frame().matrix), ("small", np.eye(3)[:, [0, 1, 2, 0]])]
    monkeypatch.setattr(subsets_digest, "frames", lambda: iter(frames))
    assert subsets_digest.main(["subsets_digest.py"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [subsets_digest.line(*frame) for frame in frames]
