"""The cones' set-up work: chord-test calls and eigenvalue solves.

The 2-D cone scans 1,024 directions with the exact chord test and then
bisects both boundary angles.  Rooting each scan direction's derivative with
its own companion-matrix eigenvalue solve cost 1,024 `np.linalg.eigvals`
calls, and one chord test per bisection midpoint 40 more calls at the
resolution 1e-8: together about 60 ms of a `stability` run's set-up.  The
3-D cone tests its 4,096 directions in one exact chord test.
"""

import numpy as np

import shocklab as sl
from shocklab import cones, fluxes


def test_the_burgers_cone_takes_few_chord_tests_and_eigenvalue_calls(monkeypatch):
    pair = sl.make_shock_pair(sl.burgers_flux(2), 1, -1)
    chord_tests, eigvals_calls = [], []
    inner_many, inner_eigvals = fluxes.oleinik_admissible_many, np.linalg.eigvals

    def many(*args, **kwargs):
        chord_tests.append(len(eigvals_calls))
        return inner_many(*args, **kwargs)

    def eigvals(*args, **kwargs):
        eigvals_calls.append(1)
        return inner_eigvals(*args, **kwargs)

    # a one-direction test reaches the batch through the fluxes module
    monkeypatch.setattr(fluxes, "oleinik_admissible_many", many)
    monkeypatch.setattr(cones, "oleinik_admissible_many", many)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    cone = sl.admissible_cone(pair, 1e-8)
    assert abs(cone.sector[0] + np.pi / 4) < 1e-7 and abs(cone.sector[1] - np.pi / 4) < 1e-7
    assert len(chord_tests) <= 8                    # 41 with one midpoint per test
    # the scan's rows have one trimmed degree with a companion matrix (p' of
    # degree 2; theta = 0 gives degree 1): one call, not one per row
    scan_calls = chord_tests[1] if len(chord_tests) > 1 else len(eigvals_calls)
    assert scan_calls <= 1
    assert len(eigvals_calls) <= len(chord_tests)


def test_the_3d_burgers_cone_roots_its_directions_in_one_call(monkeypatch):
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1, -1)
    rows, eigvals_calls = [], []
    inner_values, inner_eigvals = fluxes._extremal_values, np.linalg.eigvals

    def extremal_values(e, lo, hi):
        rows.append(len(e))
        return inner_values(e, lo, hi)

    def eigvals(*args, **kwargs):
        eigvals_calls.append(1)
        return inner_eigvals(*args, **kwargs)

    monkeypatch.setattr(fluxes, "_extremal_values", extremal_values)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    cone = sl.admissible_cone(pair, 0.05)
    assert not cone.trivial
    # every Fibonacci direction has a nonzero s^4 term: one degree, one solve
    assert rows == [4096]
    assert len(eigvals_calls) == 1
