import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from phasestab import Frame, QepsConfig, mercedes_benz_frame, q_eps_estimate

TOOL = Path(__file__).resolve().parent.parent / "tools" / "q_digest.py"
spec = importlib.util.spec_from_file_location("q_digest", TOOL)
q_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(q_digest)


def test_cases_are_fixtures_criterion_4_then_the_mix():
    names = [case[0] for case in q_digest.frames()]
    fixtures = 5 * len(q_digest.EPS)
    assert len(names) == len(set(names)) == fixtures + 3 * 21 + q_digest.MIX
    assert names[0] == "fixture mb3 eps=1e-09" and names[fixtures - 1] == "fixture gauss_4x11 eps=10.0"
    assert names[fixtures] == "criterion4 0 omega point"
    assert names[fixtures + 63].startswith("mix 0 ")
    assert sum(name.endswith(" dependent") for name in names) == q_digest.MIX // 4


def test_mix_columns_are_not_unit_length():
    norms = [np.linalg.norm(frame.matrix, axis=0) for name, frame, *_ in q_digest.frames()
             if name.startswith("mix ")]
    assert min(map(np.min, norms)) < 0.1 and max(map(np.max, norms)) > 10.0


def test_line_holds_q_bracket_and_witness_hash():
    x, cfg = np.array([0.6, 0.8]), QepsConfig(restarts=8)
    rep = q_eps_estimate(mercedes_benz_frame(), x, 0.07, cfg)
    witness = hashlib.sha256(np.concatenate(rep.witness).tobytes()).hexdigest()
    assert q_digest.line("mb3", mercedes_benz_frame(), x, 0.07, cfg) == (
        f"mb3: Q={rep.Q_estimate!r} bracket=(1.4142135623730956, 1.4142135623730956) "
        f"witness={witness}")


def test_prints_one_line_per_case(monkeypatch, capsys):
    cases = [("mb3", mercedes_benz_frame(), np.array([0.6, 0.8]), 0.07, QepsConfig()),
             ("small", Frame(np.eye(3)[:, [0, 1, 2, 0]]), np.ones(3), 0.3, QepsConfig(restarts=2))]
    monkeypatch.setattr(q_digest, "frames", lambda: iter(cases))
    assert q_digest.main(["q_digest.py"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [q_digest.line(*case) for case in cases]
