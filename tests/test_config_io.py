import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import shocklab as sl
from shocklab.config import emit_config, parse_config
from shocklab.errors import BadMagic, BadSnapshot, ConfigError, DegenerateFlux, TruncatedFile
from shocklab.fluxes import critical_points

MINIMAL = """\
# Burgers pair with a planar front
flux.burgers_d = 2
pair.u_minus = 1.0
pair.u_plus = -1.0
profile.front = planar
profile.nu = 1,0
grid.counts = 32,32
grid.box = -2,2,-2,2
experiment.horizon = 1.0
output.dir = out
"""


def test_parse_minimal_and_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.get("scheme.numerical_flux") == "rusanov"
    assert cfg.get("cone.resolution") == 1e-4
    assert cfg.get("scheme.frame") == "reduced"
    pair = cfg.build_pair()
    assert pair.u_minus == 1.0
    grid = cfg.build_grid()
    assert grid.counts == (32, 32)
    prof = cfg.build_profile()
    assert prof.rho == 0.0


def test_parse_poly_flux():
    cfg = parse_config("flux.poly = [[0,0,1],[0,0,0,1]]\n")
    assert cfg.build_flux().coeffs == sl.burgers_flux(2).coeffs


def _roots_are_taken(coeffs) -> bool:
    """Whether `critical_points` roots f_i' and f_i'' of every component."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for comp in coeffs:
                critical_points(comp)
                critical_points(P.polyder(comp))
    except DegenerateFlux:
        return False
    return True


# coefficients of every scale, tiny and huge ones beside each other
COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e-310, 2.2e-313, 1e-300, 1e10, 8e306]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(COEFFS, min_size=1, max_size=6), min_size=1, max_size=3))
# f_0 = 1 + 1e-310 s^3: the roots of f_0 itself would overflow, and no path
# takes them; f_0' = 3e-310 s^2 and f_0'' = 6e-310 s root to 0
@example([[1.0, 0.0, 0.0, 1e-310], [0.0, 0.0, 1.0]])
# the roots of f_0' = 3e10 s^2 + 2.2e-313 s^3 overflow
@example([[0.0, 0.0, 0.0, 1e10, 2.2e-313 / 4], [0.0, 0.0, 1.0]])
def test_flux_poly_parses_exactly_when_its_roots_are_taken(coeffs):
    text = "[" + ",".join("[" + ",".join(map(repr, c)) + "]" for c in coeffs) + "]"
    try:
        parse_config(f"flux.poly = {text}\n")
    except ConfigError as exc:
        (line, msg), = exc.diagnostics
        assert line == 1 and msg.startswith("flux.poly: component "), msg
        assert not _roots_are_taken(coeffs)
    else:
        assert _roots_are_taken(coeffs)


def test_wrong_order_reports_line():
    text = "flux.burgers_d = 2\npair.u_minus = -1\npair.u_plus = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (line, msg), = err.value.diagnostics
    assert line == 3
    assert "u_plus" in msg


PAIR = "flux.burgers_d = 2\npair.u_minus = 1.0\npair.u_plus = -1.0\n"


@pytest.mark.parametrize("tail, line, words", [
    ("scheme.cfl = 0.7\n", 4, "cfl must lie in"),
    ("grid.counts = 8,8\ngrid.box = 0,1,0,2\n", 5, "non-uniform"),
    ("grid.box = 0,1,0,1\ngrid.counts = 8,2\n", 5, "at least 4 cells"),
    ("grid.counts = 8,8\ngrid.box = 0,1,0\n", 5, "2 entries per axis"),
])
def test_a_cross_key_error_reports_the_line_at_fault(tail, line, words):
    # the pair on line 3 is fine, so no error may be reported there
    with pytest.raises(ConfigError) as err:
        parse_config(PAIR + tail)
    (got, msg), = err.value.diagnostics
    assert got == line and words in msg, (got, msg)


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError) as err:
        parse_config("flux.burgers_d = 2\nscheme.nmerical_flux = rusanov\n")
    (line, msg), = err.value.diagnostics
    assert line == 2 and "unknown key" in msg


@pytest.mark.parametrize("key", ["cone.sphere_samples = 512", "run.threads = 2",
                                 "experiment.kind = stability", "experiment.comparisons = 3",
                                 "experiment.unc_margin = 0.1", "run.seed = 7",
                                 "flux.label = burgers"])
def test_removed_keys_are_unknown(key):
    # no removed key ever changed a run; accepting them would ignore them silently
    with pytest.raises(ConfigError) as err:
        parse_config(f"flux.burgers_d = 2\n{key}\n")
    (line, msg), = err.value.diagnostics
    assert line == 2 and "unknown key" in msg


def test_malformed_line():
    with pytest.raises(ConfigError):
        parse_config("this is not an assignment\n")
    with pytest.raises(ConfigError):
        parse_config("nokey = 3\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("pair.u_minus = not_a_number\n")
    (line, _), = err.value.diagnostics
    assert line == 1


def test_bad_enum():
    with pytest.raises(ConfigError):
        parse_config("scheme.numerical_flux = weno\n")


def test_roundtrip_emit_parse():
    cfg = parse_config(MINIMAL)
    text = emit_config(cfg)
    cfg2 = parse_config(text)
    assert cfg.raw == cfg2.raw
    assert emit_config(cfg2) == text


def test_roundtrip_with_poly_and_perturbation():
    text = (
        "flux.poly = [[0.0,0.5,1.5],[0.0,0.0,2.0]]\n"
        "perturbation.shape = bump\n"
        "perturbation.center = 1.5,-0.25\n"
        "perturbation.radius = 0.75\n"
        "perturbation.amplitude = 1.25\n"
    )
    cfg = parse_config(text)
    assert parse_config(emit_config(cfg)).raw == cfg.raw
    phi = cfg.build_perturbation()
    assert phi.center == (1.5, -0.25)


def test_sum_perturbation():
    text = (
        "perturbation.shape = sum\n"
        "perturbation.terms = bump:0,0,1,0.5; indicator:2,2,0.5,1.0\n"
    )
    phi = parse_config(text).build_perturbation()
    assert phi.shape == "sum"
    assert len(phi.terms) == 2
    assert phi.terms[1].shape == "indicator"
    assert phi.terms[0](np.array([[0.0, 0.0]]))[0] == pytest.approx(0.5)


def test_overrides_last_wins():
    cfg = parse_config(MINIMAL + "pair.u_minus = 2.0\n")
    assert cfg.get("pair.u_minus") == 2.0


@settings(deadline=None, max_examples=30)
@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.integers(min_value=4, max_value=64),
    st.sampled_from(["rusanov", "engquist-osher"]),
)
def test_roundtrip_property(u_minus, n, kind):
    text = (
        f"pair.u_minus = {u_minus!r}\n"
        f"pair.u_plus = {u_minus - 1.0!r}\n"
        f"grid.counts = {n},{n}\n"
        f"grid.box = 0,1,0,1\n"
        f"scheme.numerical_flux = {kind}\n"
        "flux.burgers_d = 2\n"
    )
    cfg = parse_config(text)
    assert parse_config(emit_config(cfg)).raw == cfg.raw


def test_snapshot_roundtrip_bit_exact(tmp_path, rng):
    g = sl.Grid.from_box((0, 1, -1, 1), (16, 32))
    f = sl.Field(g, rng.normal(size=g.counts))
    path = tmp_path / "f.shkw"
    sl.write_snapshot(f, path, time=1.25)
    f2, t = sl.read_snapshot(path)
    assert t == 1.25
    assert f2.grid == g
    assert np.array_equal(f.values, f2.values)
    # byte-identical on rewrite
    data1 = path.read_bytes()
    sl.write_snapshot(f, path, time=1.25)
    assert path.read_bytes() == data1


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.shkw"
    path.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        sl.read_snapshot(path)


def test_snapshot_truncated(tmp_path, rng):
    g = sl.Grid.from_box((0, 1, 0, 1), (8, 8))
    f = sl.Field(g, rng.normal(size=g.counts))
    path = tmp_path / "f.shkw"
    sl.write_snapshot(f, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(TruncatedFile):
        sl.read_snapshot(path)
    path.write_bytes(raw[:9])
    with pytest.raises(TruncatedFile):
        sl.read_snapshot(path)


def _snapshot_bytes(counts, box, values, time=0.0) -> bytes:
    d = len(counts)
    return (b"SHKW1" + struct.pack(f"<I{d}I{2 * d}dd", d, *counts, *box, time)
            + np.asarray(values, dtype="<f8").tobytes())


@pytest.mark.parametrize("counts, box, values, why", [
    ((3, 8), (0, 0.75, 0, 2), np.zeros(24), "form no grid"),
    ((0, 8), (0, 1, 0, 1), np.zeros(0), "form no grid"),
    ((8, 8), (0, 1, 0, 2), np.zeros(64), "non-uniform"),
    ((8, 8), (0, np.inf, 0, 1), np.zeros(64), "form no grid"),
    ((8, 8), (0, 1, 0, np.nan), np.zeros(64), "form no grid"),
    ((8, 8), (1, 0, 1, 0), np.zeros(64), "non-positive"),
    ((4, 4), (0, 1, 0, 1), [0.0] * 15 + [np.nan], "non-finite"),
    ((4, 4, 4), (0, 1, 0, 1, 0, 1), [np.inf] + [0.0] * 63, "non-finite"),
    ((4, 4), (0, 1, 0, 1), np.zeros(17), "8 bytes follow"),
])
def test_snapshot_that_forms_no_field_is_a_typed_error(tmp_path, counts, box, values, why):
    path = tmp_path / "f.shkw"
    path.write_bytes(_snapshot_bytes(counts, box, values))
    with pytest.raises(BadSnapshot, match=why):
        sl.read_snapshot(path)


def test_probes_csv_deterministic(tmp_path):
    from shocklab.snapshots import write_probes_csv

    header = ["t", "sup"]
    rows = np.array([[0.0, 1.0], [0.1, 0.9999999999999997]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_probes_csv(header, rows, p1)
    write_probes_csv(header, rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[0] == "t,sup"
    back = float(text.splitlines()[2].split(",")[1])
    assert back == 0.9999999999999997


def test_verdict_format():
    from shocklab.experiments import Check, ExperimentReport
    from shocklab.snapshots import format_verdict

    rep = ExperimentReport("demo", [
        Check("alpha", True, 1.0, 2.0),
        Check("beta", False, 3.0, 2.0, "too big"),
    ])
    text = format_verdict(rep)
    lines = text.splitlines()
    assert lines[0] == "experiment: demo"
    assert lines[1].startswith("alpha: pass")
    assert lines[2].startswith("beta: fail")
    assert lines[-1] == "overall: fail"
