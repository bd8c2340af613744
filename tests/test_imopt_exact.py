"""The exact IM_opt decider: certificates rebuild tables with no tolerance,
verdicts match a generic Moebius test over the support lattice, large
arities stay fast, and the CLI loads no numerical packages."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import prodcsp
from prodcsp import is_imopt, make_table

F = Fraction
ONE = F(1)
SOFT = (F(1, 3), F(3), ONE)  # non-dyadic weights


def _bit(idx: int, var: int, k: int) -> int:
    return (idx >> (k - var)) & 1


def _imp_points(rng: random.Random, k: int) -> list[int]:
    """Support points of random pins and implications, neither empty nor full."""
    while True:
        pins = [rng.choice((None, None, 0, 1)) for _ in range(k)]
        imps = [
            (r, s)
            for r in range(1, k + 1)
            for s in range(1, k + 1)
            if r != s and rng.random() < 0.25
        ]
        points = [
            idx
            for idx in range(1 << k)
            if all(p is None or _bit(idx, v, k) == p for v, p in enumerate(pins, 1))
            and not any(_bit(idx, r, k) and not _bit(idx, s, k) for r, s in imps)
        ]
        if 0 < len(points) < 1 << k:
            return points


def _member_on(rng: random.Random, k: int, points: list[int]) -> list[Fraction]:
    """Unary factors times (1,1,lambda,1) pair factors, restricted to points."""
    unary = [(rng.choice(SOFT), rng.choice(SOFT)) for _ in range(k)]
    pairs = [
        (rng.randint(1, k), rng.randint(1, k), rng.choice((F(1, 3), F(1, 9))))
        for _ in range(rng.randint(0, k))
    ]
    weights = [F(0)] * (1 << k)
    for idx in points:
        value = ONE
        for v, (u0, u1) in enumerate(unary, 1):
            value *= u1 if _bit(idx, v, k) else u0
        for r, s, lam in pairs:
            if _bit(idx, r, k) and not _bit(idx, s, k):
                value *= lam
        weights[idx] = value
    return weights


def _moebius_member(weights: list[Fraction]) -> bool:
    """IM_opt by the Moebius function of the support ordered by inclusion of
    its points' 1-bits, computed by its defining recursion: the coefficient
    of a point with >= 3 lower covers must be 1 and with 2 at least 1."""
    k = len(weights).bit_length() - 1
    points = [i for i, w in enumerate(weights) if w != 0]
    below = {y: [x for x in points if x & y == x] for y in points}
    mu: dict[tuple[int, int], int] = {}
    for y in sorted(points, key=lambda p: bin(p).count("1")):
        for x in below[y]:
            mu[x, y] = 1 if x == y else -sum(
                mu[x, z] for z in below[y] if z != y and z & x == x
            )
    for y in points:
        covers = sum(
            1 for x in below[y]
            if x != y and not any(z not in (x, y) and z & x == x for z in below[y])
        )
        coefficient = ONE
        for x in below[y]:
            coefficient *= weights[x] ** mu[x, y]
        if covers >= 3 and coefficient != 1 or covers == 2 and coefficient < 1:
            return False
    return True


class TestExactCertificates:
    def test_partial_support_members_rebuild_exactly(self):
        rng = random.Random(14)
        for _ in range(300):
            k = rng.randint(2, 4)
            table = make_table(_member_on(rng, k, _imp_points(rng, k)))
            cert = is_imopt(table)
            assert cert is not None, table
            assert cert.to_table() == table
            assert all(0 <= lam < 1 for _, _, lam in cert.lambda_pairs)

    def test_verdicts_match_the_generic_moebius_test(self):
        rng = random.Random(15)
        members = 0
        for trial in range(400):
            k = rng.randint(1, 4)
            full = trial % 4 == 0 or k == 1
            points = list(range(1 << k)) if full else _imp_points(rng, k)
            if trial % 2:
                weights = _member_on(rng, k, points)
                # one changed weight usually breaks membership
                weights[rng.choice(points)] *= rng.choice((F(1, 3), F(3)))
            else:
                weights = [F(0)] * (1 << k)
                for idx in points:
                    weights[idx] = rng.choice(SOFT)
            table = make_table(weights)
            cert = is_imopt(table)
            assert (cert is not None) == _moebius_member(weights), weights
            if cert is not None:
                members += 1
                assert cert.to_table() == table
        assert 50 < members < 350, members  # both verdicts exercised


class TestLargeArity:
    def test_arity_14_all_ones(self):
        table = make_table([1] * (1 << 14))
        start = time.perf_counter()
        cert = is_imopt(table)
        elapsed = time.perf_counter() - start
        print(f"\narity-14 all-ones table decided in {elapsed:.3f} s")
        assert cert is not None and cert.to_table() == table

    def test_arity_14_pinned_implication_tables(self):
        k = 14
        rng = random.Random(16)
        imps = ((3, 4), (5, 6), (6, 7), (8, 3), (9, 10), (10, 9))
        points = [
            idx
            for idx in range(1 << k)
            if _bit(idx, 1, k) == 1 and _bit(idx, 2, k) == 0
            and not any(_bit(idx, r, k) and not _bit(idx, s, k) for r, s in imps)
        ]
        random_weights = [F(0)] * (1 << k)
        for idx in points:
            random_weights[idx] = F(rng.randint(1, 9), rng.randint(1, 9))
        member = _member_on(rng, k, points)
        for label, weights, want in (("random", random_weights, False), ("member", member, True)):
            table = make_table(weights)
            start = time.perf_counter()
            cert = is_imopt(table)
            elapsed = time.perf_counter() - start
            print(f"\narity-14 pinned implication table ({label} weights) decided in {elapsed:.3f} s")
            assert (cert is not None) == want
            if cert is not None:
                assert cert.to_table() == table


def test_cli_imports_neither_numpy_nor_scipy(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("constraint P 2\n1 1 0 3\nconstraint Q 3\n1 0 0 0 1 0 1 1/3\n")
    code = (
        "import sys, prodcsp.cli\n"
        f"assert prodcsp.cli.main(['classify-constraint', {str(path)!r}]) == 0\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    src = str(Path(prodcsp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert "IM_opt" in out
    assert out.strip().splitlines()[-1] == "[]"
