import numpy as np

from gatepower import rng

MASK = (1 << 64) - 1


class ReferenceSplitMix64:
    """Stateful splitmix64 transcribed from the published reference code."""

    def __init__(self, x: int):
        self.x = x & MASK

    def next(self) -> int:
        self.x = (self.x + 0x9E3779B97F4A7C15) & MASK
        z = self.x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)


def test_known_vectors():
    # first outputs of splitmix64 for seeds 0 and 1234567
    assert list(rng.raw_stream(0, 0, 4)) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]
    assert list(rng.raw_stream(1234567, 0, 4)) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
    ]


def test_vectorized_stream_matches_reference():
    for seed in (0, 1, 42, 2**63 + 12345, MASK):
        ref = ReferenceSplitMix64(seed)
        expected = [ref.next() for _ in range(64)]
        assert list(rng.raw_stream(seed, 0, 64)) == expected
        # arbitrary slices reproduce the same stream
        assert list(rng.raw_stream(seed, 10, 20)) == expected[10:30]


def test_uniforms_strictly_inside_unit_interval():
    u = rng.uniform_stream(99, 0, 100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.var() - 1 / 12) < 5e-3


def test_block_keys_are_splitmix_outputs():
    # the keys of blocks 0-9, as ep_monte_carlo_many takes them
    ref = ReferenceSplitMix64(7)
    assert rng.raw_stream(7, 0, 10).tolist() == [ref.next() for _ in range(10)]


def test_block_substreams_differ():
    key0, key1 = rng.raw_stream(5, 0, 2).tolist()
    a = rng.uniform_stream(key0, 0, 16)
    b = rng.uniform_stream(key1, 0, 16)
    assert not np.allclose(a, b)


def test_box_muller_moments():
    u = rng.uniform_stream(123, 0, 200_000)
    z0, z1 = rng.box_muller(u[0::2], u[1::2])
    z = np.concatenate([z0, z1])
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def _reference_box_muller(u1, u2):
    """box_muller and the parts of _box_muller_complex, with 2 pi u2 written in both expressions; the reference."""
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)


def test_box_muller_bits_match_two_expression_reference():
    u = rng.uniform_stream(321, 0, 200_000)
    # the strided (sample, qubit, amplitude) views that the Monte-Carlo states are drawn from
    us = u.reshape(-1, 2, 2, 2)
    cases = [(u[:100_000], u[100_000:]), (us[..., 0], us[..., 1])]
    # u1 from the smallest and the largest uniform_stream value, 2**-54 and 1 - 2**-53, to 1e-3
    # away, as contiguous arrays and as strided views of the same values
    for u1 in [np.geomspace(2.0**-54, 1e-3, 50_000), 1.0 - np.geomspace(2.0**-53, 1e-3, 50_000)]:
        pairs = np.stack([u1, u[: u1.size]], axis=1)
        cases += [(u1, u[: u1.size]), (pairs[:, 0], pairs[:, 1])]
    for u1, u2 in cases:
        # _box_muller_complex logs a contiguous copy of u1: its parts, and box_muller's, must have the
        # bits of the reference on the same layout and on contiguous copies
        same_layout = _reference_box_muller(u1, u2)
        contiguous = _reference_box_muller(np.ascontiguousarray(u1), np.ascontiguousarray(u2))
        z = rng._box_muller_complex(u1, u2)
        assert z.dtype == np.complex128
        for got, *wants in zip((z.real, z.imag), same_layout, contiguous, rng.box_muller(u1, u2)):
            for want in wants:
                assert got.shape == want.shape == u1.shape
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_complex_exp_of_an_imaginary_angle_is_libm_cos_and_sin():
    # the sampler takes cos and sin of its Box-Muller angles from one complex exponential; glibc's cexp
    # at a zero real part returns libm's cos and sin, and where a platform's does not, this fails instead
    # of the Monte-Carlo estimates changing silently. Angles 2 pi u2 of the sampler's own uniforms, and of
    # u2 from the smallest and the largest uniform_stream value to 1e-3 away
    keys = rng.raw_stream(46, 0, 8).tolist()
    u2s = [rng.uniform_stream(key, 0, 8192) for key in keys]
    u2s += [np.geomspace(2.0**-54, 1e-3, 20_000), 1.0 - np.geomspace(2.0**-53, 1e-3, 20_000)]
    for u2 in u2s:
        t = 2.0 * np.pi * u2
        z = np.exp(1j * t)
        np.testing.assert_array_equal(z.real.view(np.int64), np.cos(t).view(np.int64))
        np.testing.assert_array_equal(z.imag.view(np.int64), np.sin(t).view(np.int64))
