"""Acceptance gate: nine end-to-end criteria, one printed pass/fail line each.

Each test emits `[criterion N] PASS|FAIL <summary>` (echoed in the terminal
summary, outside pytest capture) and then asserts. Runtime ceilings are
asserted alongside the numeric tolerances.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

import oracles
from phasestab import (
    A0Config,
    EnsembleSpec,
    Frame,
    QepsConfig,
    a0,
    complement_property,
    crlb,
    delta,
    delta_x,
    dist_d,
    fisher_empirical,
    fisher_info,
    frame_bounds,
    full_spark,
    gaussian_frame,
    lambdaF,
    lipschitz_constants,
    mercedes_benz_frame,
    minimal_redundancy_study,
    mse_monte_carlo,
    omega,
    omega_witness_point,
    q_eps_brackets,
    q_eps_estimate,
    redundancy_stability_study,
    tau,
    u_ratio,
    u_ratios_batch,
    v_ratio,
    v_ratios_batch,
    worst_case_witness,
)
from phasestab.cli import main as cli_main

MB3 = mercedes_benz_frame()


from conftest import record_criterion


def report(num: int, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, file=sys.__stdout__, flush=True)
    record_criterion(line)
    assert ok, line


def random_frame(n, m, seed):
    return Frame(np.random.default_rng(seed).standard_normal((n, m)))


def retrievable_frame(n, m, seed):
    """Unit-column Gaussian draw, redrawn until full spark (measure-zero skip)."""
    s = seed
    while True:
        mat = np.random.default_rng(s).standard_normal((n, m))
        mat /= np.linalg.norm(mat, axis=0)
        fr = Frame(mat)
        if full_spark(fr)[0]:
            return fr
        s += 10_000


def test_criterion_1_mb3_constant_suite():
    start = time.monotonic()
    tol = 1e-6
    A, B = frame_bounds(MB3)
    a0_val, _, _ = a0(MB3)
    d_val, _, _ = delta(MB3)
    w_val, _, _ = omega(MB3)
    t_val = tau(MB3)
    lam, _ = lambdaF(MB3)
    mu0 = lipschitz_constants(MB3).mu0
    # independent oracles: dense angle grids and exhaustive subset enumeration
    checks = [
        ("A", A, 1.5),
        ("B", B, 1.5),
        ("a0", a0_val, oracles.a0_grid_2d(MB3.matrix, 40001)),
        ("a0_exact", a0_val, 0.375),
        ("Delta", d_val, oracles.delta_bruteforce(MB3.matrix)),
        ("Delta_exact", d_val, math.sqrt(0.5)),
        ("omega", w_val, oracles.omega_bruteforce(MB3.matrix)),
        ("tau", t_val, oracles.tau_bruteforce(MB3.matrix)),
        ("lambdaF", lam, oracles.lambda_grid_2d(MB3.matrix, 40001)),
        ("lambdaF_exact", lam, (9.0 / 8.0) ** 0.25),
        ("mu0", mu0, math.sqrt(0.375)),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= tol and elapsed < 5.0,
        f"MB3 constants within {worst:.2e} of oracles (tol 1e-6), {elapsed:.1f}s < 5s",
    )


def test_criterion_2_injectivity_cross_validation():
    start = time.monotonic()
    cfg = A0Config(restarts=8)
    rng = np.random.default_rng(2024)
    disagreements = 0
    count = 0
    while count < 200:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2 * n - 2, 2 * n + 3))
        if m < n:
            continue
        fr = random_frame(n, m, int(rng.integers(0, 2**31)))
        count += 1
        comp_ok, _ = complement_property(fr)
        a0_val, _, _ = a0(fr, cfg)
        from phasestab.injectivity import a0_is_positive

        a0_ok = a0_is_positive(fr, a0_val)
        if comp_ok != a0_ok:
            disagreements += 1
        if m == 2 * n - 1 and full_spark(fr)[0] != comp_ok:
            disagreements += 1
    elapsed = time.monotonic() - start
    report(
        2,
        disagreements == 0 and elapsed < 30.0,
        f"200 frames, {disagreements} criterion disagreements, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_lipschitz_sandwich():
    start = time.monotonic()
    rng = np.random.default_rng(33)
    cfg = A0Config(restarts=32)
    failures = []
    for i in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2 * n - 1, 13))
        fr = retrievable_frame(n, m, 7000 + i)
        c = lipschitz_constants(fr, a0_cfg=cfg)
        sqrt_a0 = c.mu0
        xs = rng.standard_normal((10_000, n))
        ys = rng.standard_normal((10_000, n))
        u = u_ratios_batch(fr, xs, ys)
        v = v_ratios_batch(fr, xs, ys)
        ok_u = ~np.isnan(u)
        ok_v = ~np.isnan(v)
        if not np.all((u[ok_u] >= c.Delta - 1e-9) & (u[ok_u] <= c.sqrtB + 1e-9)):
            failures.append(f"frame {i}: U out of [Delta, sqrtB]")
        if not np.all((v[ok_v] >= sqrt_a0 - 1e-6) & (v[ok_v] <= c.lambdaF**2 + 1e-6)):
            failures.append(f"frame {i}: V out of [sqrt(a0), lambdaF^2]")
        # tightness witnesses
        xw, yw, _ = worst_case_witness(fr)
        if u_ratio(fr, xw, yw) > c.Delta + 1e-6:
            failures.append(f"frame {i}: U witness misses Delta")
        a0_val, x_star, u_star = a0(fr, cfg)
        yv = x_star - 1e-6 * u_star
        if v_ratio(fr, x_star, yv) > math.sqrt(a0_val) + 1e-3:
            failures.append(f"frame {i}: V witness misses sqrt(a0)")
    elapsed = time.monotonic() - start
    report(
        3,
        not failures and elapsed < 60.0,
        f"20 frames x 10^4 pairs inside [Delta, sqrtB] / [sqrt(a0), lambdaF^2] "
        f"with tight witnesses{'; ' + '; '.join(failures) if failures else ''}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_4_qeps_suite():
    start = time.monotonic()
    frames = [MB3, retrievable_frame(2, 4, 41), retrievable_frame(2, 5, 42)]
    cfg = QepsConfig(restarts=48)
    failures = []
    rng = np.random.default_rng(44)
    for k, fr in enumerate(frames):
        A, _ = frame_bounds(fr)
        d_val, _, _ = delta(fr)
        w_val, _, _ = omega(fr)
        t_val = tau(fr)
        eps = 0.5 * t_val
        br = q_eps_brackets(fr, eps)
        if br["exact"] is None or abs(br["exact"] - 1.0 / w_val) > 1e-12:
            failures.append(f"frame {k}: bracket misses 1/omega")
        xw = omega_witness_point(fr, eps)
        rep = q_eps_estimate(fr, xw, eps, cfg)
        if rep.Q_estimate < 1.0 / w_val - 1e-3:
            failures.append(f"frame {k}: optimizer below 1/omega - 1e-3")
        if rep.Q_estimate > 1.0 / d_val + 1e-9:
            failures.append(f"frame {k}: optimizer above 1/Delta + 1e-9")
        for j in range(20):
            x = rng.standard_normal(fr.dim)
            x /= np.linalg.norm(x)
            eps_x = 0.5 * delta_x(fr, x)
            repx = q_eps_estimate(fr, x, eps_x, cfg)
            if abs(repx.Q_estimate - 1.0 / math.sqrt(A)) > 1e-3:
                failures.append(f"frame {k} x {j}: Q != 1/sqrt(A)")
        xo, yo, eps_w = worst_case_witness(fr)
        if dist_d(xo, yo) / eps_w < 1.0 / d_val - 1e-6:
            failures.append(f"frame {k}: worst-case ratio below 1/Delta")
    elapsed = time.monotonic() - start
    report(
        4,
        not failures and elapsed < 120.0,
        f"q_eps exactness/brackets/witnesses on {len(frames)} frames x 20 points"
        f"{'; ' + '; '.join(failures[:3]) if failures else ''}, {elapsed:.1f}s < 120s",
    )


def test_criterion_5_fisher_crlb_suite():
    start = time.monotonic()
    failures = []
    # (a) empirical Fisher within 5 Monte Carlo standard errors at 1e5 trials
    x = np.array([0.6, 0.8])
    sigma = 0.1
    trials = 100_000
    analytic = fisher_info(MB3, x, sigma)
    empirical = fisher_empirical(MB3, x, sigma, trials=trials, seed=55)
    # score s = M nu is Gaussian with Cov(s) = I(x), hence
    # Var(s_i s_j) = I_ii I_jj + I_ij^2
    se = np.sqrt(
        np.outer(np.diag(analytic), np.diag(analytic)) + analytic**2
    ) / math.sqrt(trials)
    if not np.all(np.abs(empirical - analytic) <= 5.0 * se):
        failures.append("empirical Fisher outside 5 SE")
    # (b) lambda_min(I(x)) >= (4 a0 / sigma^2) ||x||^2 on certified n=2 frames
    rng = np.random.default_rng(56)
    for i in range(10):
        fr = retrievable_frame(2, int(rng.integers(3, 7)), 8800 + i)
        a0_val, _, _ = a0(fr)  # closed-form value in n=2
        for _ in range(20):
            xx = rng.standard_normal(2) * rng.uniform(0.2, 3.0)
            lam_min = np.linalg.eigvalsh(fisher_info(fr, xx, sigma)).min()
            bound = 4.0 * a0_val / sigma**2 * float(xx @ xx)
            if lam_min < bound - 1e-9:
                failures.append(f"Fisher floor violated on frame {i}")
                break
    # (c) Monte Carlo MSE vs CRLB trace corridor on MB3
    run = mse_monte_carlo(MB3, x, sigma=0.01, trials=2000, seed=57)
    ratio = run.mse / run.crlb_trace
    if not 0.8 <= ratio <= 3.0:
        failures.append(f"mse/crlb ratio {ratio:.3f} outside [0.8, 3.0]")
    elapsed = time.monotonic() - start
    report(
        5,
        not failures and elapsed < 60.0,
        f"Fisher 5-SE match, eigen floor, mse/crlb={ratio:.2f} in [0.8,3.0]"
        f"{'; ' + '; '.join(failures) if failures else ''}, {elapsed:.1f}s < 60s",
    )


def test_criterion_6_witness_bound():
    start = time.monotonic()
    from phasestab.random_frames import witness_bound_51

    violations = 0
    total = 0
    ns = list(range(2, 33))
    per_n = 10_000 // len(ns) + 1
    for n in ns:
        for trial in range(per_n):
            if total >= 10_000:
                break
            spec = EnsembleSpec(n=n, m=2 * n + 1, scale="unit_columns", seed=600 + n)
            out = witness_bound_51(gaussian_frame(spec, trial))
            total += 1
            if not out["holds"]:
                violations += 1
    # exact omega <= 1/sqrt(n) at minimal redundancy, n <= 10
    omega_failures = 0
    for n in range(2, 11):
        for trial in range(3):
            fr = retrievable_frame(n, 2 * n - 1, 9100 + 31 * n + trial)
            w_val, _, _ = omega(fr, mode="exact")
            if w_val > 1.0 / math.sqrt(n) + 1e-12:
                omega_failures += 1
    elapsed = time.monotonic() - start
    report(
        6,
        violations == 0 and omega_failures == 0 and total == 10_000 and elapsed < 60.0,
        f"{total} frames, {violations} bound violations, "
        f"{omega_failures} omega > 1/sqrt(n) cases, {elapsed:.1f}s < 60s",
    )


def test_criterion_7_nondecay_corridor():
    start = time.monotonic()
    res = redundancy_stability_study(
        3.0, [8, 32], trials=50, subset_budget=128, seed=70
    )
    med = res.summary["median_omega"]
    grows_ok = med[32] >= 0.5 * med[8]
    contrast = minimal_redundancy_study([3, 10], trials=9, seed=71)
    cm = contrast.summary["median_omega"]
    decays_ok = cm[10] <= 0.5 * cm[3]
    elapsed = time.monotonic() - start
    report(
        7,
        grows_ok and decays_ok and elapsed < 600.0,
        f"r0=3 median omega n=32 {med[32]:.3f} >= 0.5 x n=8 {med[8]:.3f}; "
        f"minimal-redundancy n=10 {cm[10]:.2e} <= 0.5 x n=3 {cm[3]:.2e}, "
        f"{elapsed:.1f}s < 600s",
    )


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    cases = 0
    rng = np.random.default_rng(88)
    frames = [MB3, Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))]
    for i in range(12):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 11))
        frames.append(random_frame(n, m, 8800 + i))
    for fr in frames:
        if fr.count > 10:
            continue
        cases += 1
        d_val, _, _ = delta(fr, mode="exact")
        worst = max(worst, abs(d_val - oracles.delta_bruteforce(fr.matrix)))
        try:
            w_val, _, _ = omega(fr, mode="exact")
            worst = max(worst, abs(w_val - oracles.omega_bruteforce(fr.matrix)))
        except Exception:
            pass
        try:
            worst = max(worst, abs(tau(fr) - oracles.tau_bruteforce(fr.matrix)))
        except Exception:
            pass
    elapsed = time.monotonic() - start
    report(
        8,
        worst <= 1e-10 and cases >= 14 and elapsed < 120.0,
        f"{cases} frames m<=10: max |optimized - bruteforce| = {worst:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s < 120s",
    )


def test_criterion_9_reproducibility(capsys, tmp_path):
    commands = [
        ["certify", "--fixture", "mb3", "--seed", "3"],
        ["constants", "--fixture", "gauss_4x11", "--seed", "3"],
        ["stability", "--fixture", "mb3", "--x", "0.6,0.8", "--eps", "0.1", "--seed", "3"],
        ["crlb", "--fixture", "mb3", "--x", "0.6,0.8", "--sigma", "0.1"],
        [
            "simulate", "--fixture", "gauss_4x11", "--x", "1,0,0,0",
            "--sigma", "0.05", "--trials", "25", "--seed", "3",
            "--csv-out", str(tmp_path / "t.csv"),
        ],
        [
            "random-study", "--study", "minimal", "--n-list", "3,4",
            "--trials", "4", "--seed", "3", "--csv-out", str(tmp_path / "r.csv"),
        ],
    ]
    mismatched = []
    for args in commands:
        outs = []
        for _ in range(2):
            code = cli_main(args)
            captured = capsys.readouterr()
            assert code == 0
            csv_text = ""
            for flag, val in zip(args, args[1:]):
                if flag == "--csv-out":
                    csv_text = open(val).read()
            outs.append(captured.out + "\0" + csv_text)
        if outs[0] != outs[1]:
            mismatched.append(args[0])
    report(
        9,
        not mismatched,
        f"{len(commands)} CLI commands byte-identical across re-runs"
        f"{'; mismatches: ' + ','.join(mismatched) if mismatched else ''}",
    )
