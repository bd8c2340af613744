"""The one solve dispatch: `solve` maps a method name to a solver route.

auto takes the parity-component route (`solve_tractable`) when every applied
constraint has an ed certificate and the exhaustive oracle (`brute_force`)
otherwise. The solvers are looked up as module globals at call time, so a
wrapper set on this module's names sees every call.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentError, CertificateError
from .instances import DEFAULT_MAX_N, Assignment, CspInstance, SolveResult
from .instances import brute_force, hill_climb, measure
from .tractable import certify_instance, solve_tractable

_STRATEGY_METHOD = {"exact": "auto", "hill": "hill"}


def solve(
    inst: CspInstance, method: str = "auto", *, max_n: int = DEFAULT_MAX_N,
    seed: int = 0, restarts: int = 8, exact_only: bool = False,
) -> SolveResult:
    """Solve by method auto, brute, tractable or hill. Every route but hill
    is exact; hill's result has method "external", and exact_only refuses it."""
    if method in ("auto", "tractable"):
        certs = certify_instance(inst)
        if certs is not None:
            return solve_tractable(inst, certs)
        if method == "tractable":
            raise CertificateError("some applied constraint has no ed certificate")
        method = "brute"
    if method == "brute":
        return brute_force(inst, max_n=max_n)
    if method == "hill":
        if exact_only:
            raise ArgumentError("--exact forbids the hill-climb method")
        bits = hill_climb(inst, seed=seed, restarts=restarts)
        return SolveResult(measure(inst, bits), bits, "external")
    raise ArgumentError(f"unknown method {method!r}")


def approx_scheme(
    inst: CspInstance, eps: Fraction | float, strategy: str = "exact",
    seed: int = 0, restarts: int = 8, max_n: int = DEFAULT_MAX_N,
) -> Assignment:
    """Randomized-approximation-scheme harness. The exact strategy (the auto
    route) always meets the 2^eps bound; hill is a best-effort exerciser of
    the harness with no guarantee."""
    if not (0 < eps < 1):
        raise ArgumentError(f"error tolerance must lie in (0,1), got {eps}")
    if strategy not in _STRATEGY_METHOD:
        raise ArgumentError(f"unknown strategy {strategy!r}")
    method = _STRATEGY_METHOD[strategy]
    return solve(inst, method, max_n=max_n, seed=seed, restarts=restarts).argmax
