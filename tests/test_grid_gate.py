"""The one gate of a scan grid (dsp._terms): every entry point that takes a phi grid reads its
terms there, a grid is scanned for finiteness unless it holds the bytes of the cached uniform grid
of its length, and the results and refusals are those of checking the grid first and looking its
terms up after, kept here as the oracle."""

import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polphase import cli, dsp, fringes, interferometer, plates, polarimetry, su2

RNG = np.random.default_rng(1984)


# ---------------------------------------------------------------------------
# the oracle: each entry point as a check of the grid under its name, then a lookup of its terms

def oracle_terms(phi, k, name=None, shape=None):
    """The grid checked under its name (if it has one) and, for values of the given shape, along its
    axis; then its terms, which a cache hit or a computation gives alike."""
    phi = np.asarray(su2.finite(name, phi)) if name else np.asarray(phi, dtype=float)
    if shape is not None and (phi.ndim != 1 or shape[-1:] != phi.shape):
        raise ValueError(f"values of shape {shape} do not lie along a grid of shape {phi.shape}")
    if phi.ndim != 1:
        return np.cos(k * phi), np.sin(k * phi), None, None
    return dsp._design(phi, k)


def oracle_harmonics(phi, k):
    return oracle_terms(phi, k, "phi")[:2]


def oracle_harmonic_fit(values, phi, k):
    y = np.asarray(values, dtype=float)
    if np.isinf(y).any():
        su2.finite("values", np.where(np.isnan(y), 0.0, y))
    return dsp._fit(y, oracle_terms(phi, k, "phi", y.shape), k)


def oracle_unitary(u):
    u = su2.finite("u", u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"u must be a (2, 2) matrix or a (..., 2, 2) stack, got shape {u.shape}")
    worst = np.abs(np.einsum("...ji,...jk->...ik", u.conj(), u) - np.eye(2)).max(initial=0.0)
    if worst > interferometer.EPS_UNITARY:
        raise interferometer.NonUnitary(f"u must be unitary: |u^dagger u - 1| reaches {worst:.3e}, "
                                        f"above {interferometer.EPS_UNITARY:g}")
    return u


def oracle_output_intensity(input_pol, u, phi):
    u = oracle_unitary(u)
    cos_phi, sin_phi, _, _ = oracle_terms(phi, 1, "phi")
    k = {"V": 0, "H": 1}[input_pol]
    w = u[..., k, k].reshape(u.shape[:-2] + (1,) * cos_phi.ndim)
    intensity = interferometer._port(w, cos_phi, sin_phi)
    return float(intensity) if intensity.ndim == 0 else intensity


def oracle_split_beam_shift(u, phi_grid):
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"u must be a (2, 2) matrix, got shape {u.shape}")
    pair = oracle_unitary((u, u[::-1, ::-1]))
    phi = np.asarray(su2.finite("phi", phi_grid))
    terms = oracle_terms(phi, 1, None, (2,) + phi.shape)
    amp_v, amp_h = (dsp._fit(interferometer._port(w, terms[0], terms[1]), terms, 1)[1] for w in pair[:, 0, 0])
    visibility = 2.0 * abs(amp_v)
    if visibility <= interferometer.EPS_VISIBILITY:
        raise interferometer.ZeroVisibility(f"visibility {visibility:.3e} below {interferometer.EPS_VISIBILITY:g}")
    return su2.wrap_angle(np.angle(amp_v) - np.angle(amp_h))


def oracle_scan_plate_array(array, phi_grid):
    phis = np.atleast_1d(su2.finite("phi_grid", phi_grid))
    u = plates.compose(array)
    a, b, c = (u[0, 0] + u[1, 1]) / 2.0, (u[0, 0] - u[1, 1]) / 2.0, (u[0, 1] + u[1, 0]) / 2.0
    cos_phi, sin_phi = oracle_harmonics(phis, 1)
    re = a.real + b.real * cos_phi + c.real * sin_phi
    im = a.imag + b.imag * cos_phi + c.imag * sin_phi
    return re * re + im * im


def oracle_polarimetric_intensity(xi, eta, zeta, phi):
    xi, eta, zeta, phi = su2.finite("xi", xi), su2.finite("eta", eta), su2.finite("zeta", zeta), su2.finite("phi", phi)
    swing = polarimetry._scan_law(*polarimetry._five_plate_law(xi, eta, zeta), *oracle_harmonics(phi, 1))
    return float(swing) if swing.ndim == 0 else swing


def oracle_sweep_extrema(sweep):
    return polarimetry._extrema(*oracle_harmonic_fit(sweep.intensities, sweep.phi_grid, 2))


def oracle_scan_grid(n_grid):
    try:
        n = operator.index(n_grid)
    except TypeError:
        raise ValueError(f"n_grid must be an integer, got {n_grid!r}") from None
    if n < 64:
        raise ValueError(f"n_grid must be at least 64, got {n}")
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return phi, dsp._design(phi, 1), dsp._design(phi, 2)


def oracle_polarimetric_sweep(xi, eta, zeta, n_grid, noise_sigma, seed):
    phi, law, _ = oracle_scan_grid(n_grid)
    etas, x, z = np.asarray(su2.finite("eta", eta)), su2.finite("xi", xi), su2.finite("zeta", zeta)
    add_noise = polarimetry._scan_noise(noise_sigma, seed, etas.ndim > 0)
    intensity = np.empty(etas.shape + phi.shape)
    scans, etas = intensity.reshape(-1, len(phi)), etas.reshape(-1, 1)
    for rows in dsp._row_blocks(*scans.shape):
        polarimetry._scan_law(*polarimetry._five_plate_law(x, etas[rows], z), *law[:2], scans[rows], add_noise,
                              rows.start)
    return polarimetry.PolarimetricSweep(phi, intensity, su2.YzyParams(xi, eta, zeta))


def oracle_measure_phase(xi, eta, zeta, n_grid, noise_sigma, seed):
    phi, law, fit = oracle_scan_grid(n_grid)
    # the angles as 0-d arrays, the arithmetic measure_phase does on floats
    angles = {name: np.asarray(su2.finite(name, a)) for name, a in (("eta", eta), ("xi", xi), ("zeta", zeta))}
    for name, angle in angles.items():
        if angle.ndim:
            raise ValueError(f"{name} must be a scalar angle, got an array of shape {angle.shape}")
    scan = polarimetry._scan_law(*polarimetry._five_plate_law(angles["xi"], angles["eta"], angles["zeta"]),
                                 *law[:2], np.empty(len(phi)), polarimetry._scan_noise(noise_sigma, seed, False))
    return polarimetry.extract_cos2_phase(*polarimetry._extrema(*dsp._fit(scan, fit, 2)))


def bits(result):
    """The result to the bit: its type, and an array's dtype, shape and bytes."""
    if isinstance(result, tuple):
        return tuple(bits(part) for part in result)
    if isinstance(result, polarimetry.PolarimetricSweep):
        return bits((result.phi_grid, result.intensities)), result.params
    if result is None:
        return None
    array = np.asarray(result)
    return type(result).__name__, array.dtype.str, array.shape, array.tobytes()


def outcome(f, *args):
    """bits of f's result, or its refusal's type and message."""
    try:
        return bits(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# every entry point, on every kind of grid, on a miss and on a hit

GRID_KINDS = ["uniform", "sorted", "scattered", "nan", "inf", "0-d", "2-D", "integer", "list", "long"]


@st.composite
def grids(draw):
    kind = draw(st.sampled_from(GRID_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(64, 600))
    uniform = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    if kind in ("nan", "inf"):
        bad = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
        uniform[rng.integers(0, n, draw(st.integers(1, 3)))] = bad
    return {
        "uniform": lambda: uniform,
        "sorted": lambda: np.sort(rng.uniform(-np.pi, 3 * np.pi, n)),
        "scattered": lambda: rng.uniform(-10.0, 10.0, n),
        "nan": lambda: uniform,
        "inf": lambda: uniform,
        "0-d": lambda: draw(st.sampled_from([float(rng.uniform(-4, 4)), np.float64(rng.uniform(-4, 4)),
                                             np.array(rng.uniform(-4, 4)), np.nan])),
        "2-D": lambda: rng.uniform(0.0, 2 * np.pi, (3, n // 3)),
        "integer": lambda: np.arange(n),
        "list": lambda: rng.uniform(0.0, 2 * np.pi, n).tolist(),
        "long": lambda: np.linspace(0.0, 2 * np.pi, dsp._CACHED_POINTS + 1, endpoint=False),
    }[kind]()


@settings(deadline=None, max_examples=150)
@given(grids(), st.integers(0, 2**32 - 1), st.sampled_from([None, "values", "u"]),
       st.sampled_from([63, 64, 100, 4096, dsp._CACHED_POINTS + 1, np.int64(256), np.array(128), 64.5]))
def test_every_grid_entry_point_checks_then_looks_up_as_the_oracle(phi, seed, spoiled, n_grid):
    rng = np.random.default_rng(seed)
    xi, eta, zeta = rng.uniform(-np.pi, np.pi, 3)
    u = su2.from_yzy(xi, eta, zeta)
    values = rng.uniform(0.0, 1.0, np.shape(phi))
    # the order of the refusals: an infinite value before the grid in harmonic_fit, u before the grid
    if spoiled == "values" and values.size:
        values.flat[rng.integers(values.size)] = np.inf
    if spoiled == "u":
        u = 2.0 * u
    array = plates.polarimetric_array(xi, eta, zeta, 0.0)
    sweep = polarimetry.PolarimetricSweep(phi, values, su2.YzyParams(xi, eta, zeta))
    noise, noise_seed = float(rng.choice([0.0, 0.01, 0.3])), int(rng.integers(2**31))
    calls = [
        (dsp.harmonics, oracle_harmonics, (phi, 1)),
        (dsp.harmonics, oracle_harmonics, (phi, 2)),
        (dsp.harmonic_fit, oracle_harmonic_fit, (values, phi, 1)),
        (dsp.harmonic_fit, oracle_harmonic_fit, (values, phi, 2)),
        (interferometer.output_intensity, oracle_output_intensity, ("V", u, phi)),
        (interferometer.output_intensity, oracle_output_intensity, ("H", u, phi)),
        (interferometer.split_beam_shift, oracle_split_beam_shift, (u, phi)),
        (polarimetry.scan_plate_array, oracle_scan_plate_array, (array, phi)),
        (polarimetry.polarimetric_intensity, oracle_polarimetric_intensity, (xi, eta, zeta, phi)),
        (polarimetry.sweep_extrema, oracle_sweep_extrema, (sweep,)),
        (polarimetry.polarimetric_sweep, oracle_polarimetric_sweep, (xi, eta, zeta, n_grid, noise, noise_seed)),
        (polarimetry.polarimetric_sweep, oracle_polarimetric_sweep,
         (xi, np.array([eta, -eta]), zeta, n_grid, noise, noise_seed)),
        (polarimetry.measure_phase, oracle_measure_phase, (xi, eta, zeta, n_grid, noise, noise_seed)),
    ]
    for entry, oracle, args in calls:
        want = outcome(oracle, *args)
        # the first call may miss the cache and the second hits it; both give the oracle's outcome
        for _ in range(2):
            assert outcome(entry, *args) == want, entry.__name__


# ---------------------------------------------------------------------------
# the uniform grid of a length is never scanned, any other grid always is, and the
# cache never vouches for changed bytes

def _grid_checks(monkeypatch) -> list:
    """The name of every finiteness check, from here on, of a phi grid, wherever it is made."""
    checks = []

    def counted(name, value, dtype=float):
        if name in ("phi", "phi_grid"):
            checks.append(name)
        return su2.finite(name, value, dtype)

    for module in (dsp, interferometer, polarimetry):
        monkeypatch.setattr(module, "finite", counted)
    return checks


def _computations(monkeypatch) -> list:
    """The length of every grid whose terms are computed from here on."""
    calls, design = [], dsp._design
    monkeypatch.setattr(dsp, "_design", lambda phi, k: calls.append(len(phi)) or design(phi, k))
    return calls


def _scan(phi) -> np.ndarray:
    """Finite scan values along any grid, whatever its phases hold."""
    return 0.5 + 0.2 * np.cos(np.arange(np.size(phi)))


U = su2.from_yzy(0.7, -1.2, 0.4)
ENTRY_POINTS = {
    "split_beam_shift": lambda phi: interferometer.split_beam_shift(U, phi),
    "harmonic_fit": lambda phi: dsp.harmonic_fit(_scan(phi), phi, 1),
    "scan_plate_array": lambda phi: polarimetry.scan_plate_array(plates.decompose_qhq(0.7, -1.2, 0.4), phi),
    "output_intensity": lambda phi: interferometer.output_intensity("H", U, phi),
    "polarimetric_intensity": lambda phi: polarimetry.polarimetric_intensity(0.7, -1.2, 0.4, phi),
    "sweep_extrema": lambda phi: polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(phi, _scan(phi), None)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_cached_grid_is_not_scanned_again(entry, monkeypatch):
    phi = np.linspace(0.0, 2 * np.pi, 1001, endpoint=False)
    first = ENTRY_POINTS[entry](phi)  # enters the grid of its length, if no other test has
    checks, computations = _grid_checks(monkeypatch), _computations(monkeypatch)
    for grid in (phi, phi.copy(), list(phi)):  # the same bytes hit, whatever holds them
        assert outcome(ENTRY_POINTS[entry], grid) == bits(first)
    assert checks == [] and computations == []


@pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_cached_grid_changed_in_place_is_refused(entry, bad, shown):
    phi = np.linspace(0.0, 2 * np.pi, 999, endpoint=False)
    ENTRY_POINTS[entry](phi)  # a hit
    phi[17] = bad
    name = "phi_grid" if entry == "scan_plate_array" else "phi"
    with pytest.raises(su2.NonFiniteInput, match=f"^{name} must be finite, got 1 of 999 values$"):
        ENTRY_POINTS[entry](phi)
    with pytest.raises(su2.NonFiniteInput, match=f"^{name} must be finite, got {shown}$"):
        ENTRY_POINTS[entry](phi[17:18])


GOLDEN = Path(__file__).parent / "golden"
#: the CLI runs whose grids reach the gate: the interferometer sweep, the plate scan, the
#: visibility check's simulated sweeps and a polarimetry curve, whose sweep's phi_grid is fitted
CLI_RUNS = [
    ["interf", "sweep", "--xi", "0.5", "--eta", "1.0", "--zeta=-0.3", "--samples", "256"],
    ["polarimetry", "--plates", str(GOLDEN / "polarimetry_noisy_plate_scan" / "plates.txt"), "--n-grid", "512",
     "--noise-sigma", "0.02", "--seed", "5"],
    ["visibility", "--theta1=-1.5:1.5:5", "--theta2=-1:1:3", "--theta3=-0.9", "--check"],
    ["polarimetry", "--mode", "zeta2pi", "--eta-steps", "4", "--n-grid", "640"],
]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: "_".join(argv[:2]))
def test_every_grid_the_cli_builds_hits_its_entry_without_a_scan(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out-dir", "first"]) == 0  # enters the grid's entries, if no other test has
    checks, computations = _grid_checks(monkeypatch), _computations(monkeypatch)
    misses = dsp._uniform.cache_info().misses
    assert cli.main(argv + ["--out-dir", "again"]) == 0
    assert checks == [] and computations == []
    assert dsp._uniform.cache_info().misses == misses
    capsys.readouterr()


def test_the_uniform_grids_of_the_bench_and_of_a_sweep_hit_without_a_scan(monkeypatch):
    # the bench's grid is np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False), a sweep's phi_grid a copy
    grids = [np.linspace(0.0, 2.0 * math.pi, n, endpoint=False) for n in (2, 3, 64, 100, 1000, 4096)]
    grids.append(polarimetry.polarimetric_sweep(0.3, 1.1, -0.4, 2048).phi_grid)
    grids.append(np.linspace(0.0, 2.0 * math.pi, dsp._CACHED_POINTS, endpoint=False))
    for phi in grids:
        for k in (1, 2):
            terms = dsp._uniform(len(phi), k)[1]
            checks, computations = _grid_checks(monkeypatch), _computations(monkeypatch)
            assert dsp._terms(phi, k) is terms
            assert dsp._terms(list(phi), k) is terms
            assert checks == [] and computations == []
            monkeypatch.undo()


def test_any_other_grid_is_scanned_and_computed_on_each_call_and_enters_nothing(monkeypatch):
    # a fringe image's k0 x + phi0, a uniform grid shifted off 0, and a sorted random grid
    held = [(phi, k, dsp.harmonics(phi, k)) for phi in (np.linspace(0.0, 2 * np.pi, 640, endpoint=False),
                                                         np.linspace(0.0, 2 * np.pi, 999, endpoint=False))
            for k in (1, 2)]
    info = dsp._uniform.cache_info()
    generated = 0.25 * np.arange(640.0) + 0.3
    shifted = np.linspace(0.0, 2 * np.pi, 640, endpoint=False) + 1e-3
    checks, computations = _grid_checks(monkeypatch), _computations(monkeypatch)
    for phi in (generated, shifted, np.sort(RNG.uniform(0.0, 2 * np.pi, 999))):
        for entry in sorted(ENTRY_POINTS):
            checks.clear()
            computations.clear()
            assert outcome(ENTRY_POINTS[entry], phi) == outcome(ENTRY_POINTS[entry], phi)
            assert len(checks) == 2 and computations == [len(phi)] * 2, entry
    monkeypatch.undo()
    fringes.generate(0.4, 0.3, 0.25, size=(32, 640), noise_sigma=0.02, seed=3)
    assert dsp._uniform.cache_info() == info  # not one lookup, entry or eviction
    for phi, k, pair in held:
        assert all(a is b for a, b in zip(dsp.harmonics(phi, k), pair))


def test_a_grid_harmonics_read_with_a_nan_is_not_entered():
    # harmonics refuses a NaN phase as harmonic_fit does, on every call: the grid is never entered
    phi = np.sort(RNG.uniform(0.0, 2 * np.pi, 998))
    phi[3] = np.nan
    for read in (dsp.harmonics, dsp.harmonics, lambda grid: dsp.harmonic_fit(np.ones(998), grid, 1)):
        with pytest.raises(su2.NonFiniteInput, match="^phi must be finite, got 1 of 998 values$"):
            read(phi)
    for bad, shown in ((np.nan, "nan"), (np.inf, "inf")):  # a scalar phase, and an infinite one, too
        with pytest.raises(su2.NonFiniteInput, match=f"^phi must be finite, got {shown}$"):
            dsp.harmonics(bad)


# ---------------------------------------------------------------------------
# a complex grid or angle is refused by name, not truncated to its real part

@pytest.mark.parametrize("imaginary", [1j, 0j])
def test_a_complex_grid_is_refused_by_name(imaginary):
    # split_beam_shift(u, grid + 1j) used to return the real grid's 2 delta, with only a ComplexWarning
    phi = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    interferometer.split_beam_shift(U, phi)  # the real grid is cached: its bytes are not the complex one's
    grid = phi + imaginary
    for call, name in ((lambda: interferometer.split_beam_shift(U, grid), "phi"),
                       (lambda: interferometer.output_intensity("V", U, grid), "phi"),
                       (lambda: dsp.harmonics(grid), "phi"),
                       (lambda: dsp.harmonic_fit(np.ones(256), grid, 2), "phi"),
                       (lambda: dsp.harmonic_fit(np.ones(256) + imaginary, phi, 2), "values"),
                       (lambda: polarimetry.scan_plate_array(plates.decompose_qhq(0.7, -1.2, 0.4), grid), "phi_grid"),
                       (lambda: polarimetry.polarimetric_intensity(0.7, -1.2, 0.4, grid), "phi")):
        with pytest.raises(su2.ComplexInput, match=f"^{name} must be real, got 256 complex values$"):
            call()
    with pytest.raises(su2.ComplexInput, match=re.escape(f"phi must be real, got {complex(1.5 + imaginary)}")):
        interferometer.output_intensity("V", U, 1.5 + imaginary)
    assert issubclass(su2.ComplexInput, ValueError)
