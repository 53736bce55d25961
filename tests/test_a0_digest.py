import importlib.util
from pathlib import Path

import numpy as np

from phasestab import A0Config, Frame, a0, lambdaF, mercedes_benz_frame

TOOL = Path(__file__).resolve().parent.parent / "tools" / "a0_digest.py"
spec = importlib.util.spec_from_file_location("a0_digest", TOOL)
a0_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(a0_digest)


def test_frames_are_fixtures_criterion_2_then_the_mix():
    names = [name for name, _, _ in a0_digest.frames()]
    assert len(names) == len(set(names)) == 5 + 200 + a0_digest.MIX
    assert names[0] == "fixture mb3" and names[4] == "fixture gauss_4x11"
    assert names[5].startswith("criterion2 0 ") and names[205] == "mix 0 5x9"
    assert sum(name.endswith(" dependent") for name in names) == a0_digest.MIX // 4


def test_line_holds_a0_scale_and_verdict():
    mb3 = mercedes_benz_frame()
    assert a0_digest.line("mb3", mb3, A0Config()) == (
        f"mb3: a0={a0(mb3)[0]!r} lambdaF={lambdaF(mb3)[0]!r} a0_scale=1.0 positive=True")
    short = Frame(np.random.default_rng(4).standard_normal((3, 4)))
    assert a0_digest.line("short", short, A0Config()).endswith(" positive=False")


def test_prints_one_line_per_frame(monkeypatch, capsys):
    frames = [("mb3", mercedes_benz_frame(), A0Config()),
              ("small", Frame(np.eye(3)[:, [0, 1, 2, 0]]), A0Config(restarts=2))]
    monkeypatch.setattr(a0_digest, "frames", lambda: iter(frames))
    assert a0_digest.main(["a0_digest.py"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [a0_digest.line(*frame) for frame in frames]
