"""The one parameter gate (su2._scalar, su2._seed): every public parameter that must be one number refuses a
value of the wrong kind with a ValueError whose message starts with the parameter's name, before numpy can
take it, fail on it unlabelled or warn.  An array parameter refuses text, which numpy would parse, and a complex
value for a real one, the same way (su2._array)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polphase import dsp, fringes, interferometer, plates, polarimetry, su2

PHI_64 = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
PROFILE = np.linspace(0.0, 1.0, 64)
IMAGE = fringes.generate(0.3, 0.2, 0.4, size=(64, 96))
UP, LOW = fringes.column_average(IMAGE, fringes.Region(0, 96, 0, 64))
IMAGE_ARGS = {"delta": 0.3, "beta": 0.2, "k0": 0.4, "size": (32, 48), "noise_sigma": 0.1}


def entry(name, kind, call, signed=False, none_ok=False):
    """One public parameter: the name its refusals start with, its kind (integer, real, seed, stack seed, array
    or complex array), whether -1 breaks a sign rule of its own, whether None is its default, and a call that
    passes it (an array parameter 256 numbers, reshaped by the call)."""
    return pytest.param(name, kind, call, signed, none_ok, id=f"{name}-{len(TABLE)}")


def shaped(value, shape):
    """An array value reshaped as a call needs it; a scalar value as it is."""
    return np.reshape(value, shape) if np.ndim(value) else value


TABLE = []
for row in [
    # dsp
    ("k", "integer", lambda v: dsp.harmonics(PHI_64, v)),
    ("k", "integer", lambda v: dsp.harmonic_fit(np.ones(64), PHI_64, v)),
    ("profile", "array", dsp.savitzky_golay),
    ("values", "array", lambda v: dsp.harmonic_fit(shaped(v, (4, 64)), PHI_64, 1)),
    ("phi", "array", dsp.harmonics),
    ("phi", "array", lambda v: dsp.harmonic_fit(np.ones(256), v, 1)),
    # plates
    ("plate axis", "real", lambda v: plates.WavePlate("Q", v)),
    ("plate axis", "real", plates.quarter_wave),
    ("plate axis", "real", plates.half_wave),
    ("xi", "real", lambda v: plates.decompose_qhq(v, 0.2, 0.3)),
    ("eta", "real", lambda v: plates.decompose_qhq(0.1, v, 0.3)),
    ("zeta", "real", lambda v: plates.decompose_qhq(0.1, 0.2, v)),
    ("xi", "real", lambda v: plates.polarimetric_array(v, 0.2, 0.3, 0.4)),
    ("eta", "real", lambda v: plates.polarimetric_array(0.1, v, 0.3, 0.4)),
    ("zeta", "real", lambda v: plates.polarimetric_array(0.1, 0.2, v, 0.4)),
    ("phi", "real", lambda v: plates.polarimetric_array(0.1, 0.2, 0.3, v)),
    ("xi", "real", lambda v: plates.reduced_array_zeta_2pi(v, 0.2, 0.3)),
    ("eta", "real", lambda v: plates.reduced_array_zeta_2pi(0.1, v, 0.3)),
    ("phi", "real", lambda v: plates.reduced_array_zeta_2pi(0.1, 0.2, v)),
    ("eta", "real", lambda v: plates.reduced_array_xi_minus_pi(v, 0.2, 0.3)),
    ("zeta", "real", lambda v: plates.reduced_array_xi_minus_pi(0.1, v, 0.3)),
    ("phi", "real", lambda v: plates.reduced_array_xi_minus_pi(0.1, 0.2, v)),
    ("phi", "real", lambda v: plates.polarimetric_target(np.eye(2), v)),
    # polarimetry
    ("i_min", "real", lambda v: polarimetry.extract_cos2_phase(v, 0.5)),
    ("i_max", "real", lambda v: polarimetry.extract_cos2_phase(0.2, v)),
    ("noise_sigma", "real", lambda v: polarimetry.add_scan_noise(np.full(64, 0.5), v), True),
    ("seed", "seed", lambda v: polarimetry.add_scan_noise(np.full(64, 0.5), 0.1, v), True, True),
    ("seed", "stack seed", lambda v: polarimetry.add_scan_noise(np.full((3, 64), 0.5), 0.1, v), True, True),
    ("xi", "real", lambda v: polarimetry.polarimetric_sweep(v, 0.2, 0.3, 64)),
    ("zeta", "real", lambda v: polarimetry.polarimetric_sweep(0.1, 0.2, v, 64)),
    ("n_grid", "integer", lambda v: polarimetry.polarimetric_sweep(0.1, 0.2, 0.3, v), True),
    ("noise_sigma", "real", lambda v: polarimetry.polarimetric_sweep(0.1, 0.2, 0.3, 64, v), True),
    ("seed", "seed", lambda v: polarimetry.polarimetric_sweep(0.1, 0.2, 0.3, 64, 0.1, v), True, True),
    ("seed", "stack seed", lambda v: polarimetry.polarimetric_sweep(0.1, np.zeros(2), 0.3, 64, 0.1, v), True, True),
    ("xi", "real", lambda v: polarimetry.measure_phase(v, 0.2, 0.3, 64)),
    ("eta", "real", lambda v: polarimetry.measure_phase(0.1, v, 0.3, 64)),
    ("zeta", "real", lambda v: polarimetry.measure_phase(0.1, 0.2, v, 64)),
    ("n_grid", "integer", lambda v: polarimetry.measure_phase(0.1, 0.2, 0.3, v), True),
    ("noise_sigma", "real", lambda v: polarimetry.measure_phase(0.1, 0.2, 0.3, 64, v), True),
    ("seed", "seed", lambda v: polarimetry.measure_phase(0.1, 0.2, 0.3, 64, 0.1, v), True, True),
    # fringes: the image geometry (size, split row, region bounds) is refused as a whole, so -1 is not
    # drawn for it; a carrier k0 lies in (0, pi)
    ("region col_start", "integer", lambda v: fringes.Region(v, 5, 0, 5)),
    ("region col_end", "integer", lambda v: fringes.Region(0, v, 0, 5)),
    ("region row_start", "integer", lambda v: fringes.Region(0, 5, v, 5)),
    ("region row_end", "integer", lambda v: fringes.Region(0, 5, 0, v)),
    ("split_row", "integer", lambda v: fringes.Interferogram(np.zeros((64, 96)), v)),
    ("delta", "real", lambda v: fringes.generate(**IMAGE_ARGS | {"delta": v})),
    ("beta", "real", lambda v: fringes.generate(**IMAGE_ARGS | {"beta": v})),
    ("phi0", "real", lambda v: fringes.generate(**IMAGE_ARGS | {"phi0": v})),
    ("k0", "real", lambda v: fringes.generate(**IMAGE_ARGS | {"k0": v}), True),
    ("height", "integer", lambda v: fringes.generate(**IMAGE_ARGS | {"size": (v, 48)})),
    ("width", "integer", lambda v: fringes.generate(**IMAGE_ARGS | {"size": (32, v)})),
    ("noise_sigma", "real", lambda v: fringes.generate(**IMAGE_ARGS | {"noise_sigma": v}), True),
    ("envelope_width", "real", lambda v: fringes.generate(**IMAGE_ARGS | {"envelope_width": v}), True, True),
    ("seed", "seed", lambda v: fringes.generate(**IMAGE_ARGS | {"seed": v}), True, True),
    ("split_row", "integer", lambda v: fringes.generate(**IMAGE_ARGS | {"split_row": v}), False, True),
    ("k0", "real", lambda v: fringes.Interferogram(np.zeros((64, 96)), 32, k0=v), False, True),
    ("true_delta", "real", lambda v: fringes.Interferogram(np.zeros((64, 96)), 32, true_delta=v), False, True),
    ("k0", "real", lambda v: fringes.shift_by_minima(UP, LOW, v), True),
    ("k0", "real", lambda v: fringes.shift_by_fourier(UP, LOW, v), True, True),
    # arrays that numpy converted from text, or from complex numbers with only a ComplexWarning
    ("pixels", "array", lambda v: fringes.Interferogram(shaped(v, (16, 16)), 8)),
    ("profile", "array", fringes.estimate_carrier),
    ("intensity", "array", lambda v: polarimetry.add_scan_noise(v, 0.1)),
    ("plate axis", "array", lambda v: plates.compose("QHQH", shaped(v, (64, 4)))),
    ("u", "complex array", lambda v: plates.polarimetric_target(shaped(v, (64, 2, 2)), 0.3)),
    ("angle", "array", su2.rot_y),
    ("xi", "array", lambda v: su2.from_yzy(v, 0.0, 0.0)),
    ("u", "complex array", lambda v: interferometer.split_beam_shift(shaped(v, (64, 2, 2)), PHI_64)),
    ("u", "complex array", lambda v: su2.apply(shaped(v, (64, 2, 2)), su2.KET_V)),
    ("state", "complex array", lambda v: su2.apply(np.eye(2), shaped(v, (128, 2)))),
]:
    TABLE.append(entry(*row))


def bad_values(kind, signed, none_ok) -> list:
    """The values a parameter of this kind refuses: not finite, text, arrays, complex, None; a float, even
    an integral one, for an integer or a seed; -1 where the sign matters.  A one-scan seed may be a sequence,
    the entropy of one generator, so its arrays hold floats."""
    if kind.endswith("array"):
        values = ["0.1", b"2", ["0.5"] * 256, np.full(256, b"0.5"), np.full(256, 0.5, dtype=object)]
        return values + [np.full(256, 0.5 + 0.5j)] * (kind == "array")
    values = [np.nan, np.inf, -np.inf, "0.1", b"2", 1 + 1j, np.array([2]), np.array([2, 3])]
    if kind == "seed":
        values[-2:] = [np.array([2.5]), np.array([2.0, 3.0])]
    if kind != "real":
        values += [2.5, 2.0, np.float64(2.0)]
    if signed:
        values.append(-1)
    if not none_ok:
        values.append(None)
    return values


@pytest.mark.parametrize("name, kind, call, signed, none_ok", TABLE)
@settings(deadline=None, max_examples=30, database=None)
@given(data=st.data())
def test_a_one_number_parameter_refuses_a_bad_value_by_name(name, kind, call, signed, none_ok, data):
    # each was accepted, refused unlabelled (TypeError, numpy's own ValueError), warned or returned NaN for
    # some of these; the draw is from a list shorter than max_examples, so every value is tried
    value = data.draw(st.sampled_from(bad_values(kind, signed, none_ok)), label="value")
    with pytest.raises(ValueError) as refused:
        call(value)
    assert str(refused.value).startswith(f"{name} "), str(refused.value)
