"""RandomBuffer.take and rng.draws read the stream exactly as scalar draws do.

Samplers draw a node's in-edge coins as one ``take(deg)`` slice.  These
checks pin that a slice reads the same values as ``deg`` calls of ``u()``
and leaves the buffer and the generator in the same state, also when the
caller draws from the generator directly between buffered draws.
"""

import pytest

from limax.rng import RandomBuffer, draws, stream


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_take_matches_scalar_draws_with_interleaved_generator_draws(block):
    sizes = stream(99, block)
    by_take = RandomBuffer(stream(5, block), block=block)
    by_u = RandomBuffer(stream(5, block), block=block)
    for _ in range(200):
        k = int(sizes.integers(0, 2 * block + 3))
        got = by_take.take(k)
        want = [by_u.u() for _ in range(k)]
        assert got == want
        assert all(type(x) is float for x in got)
        # roots and seed coins come straight from the generator mid-stream
        for _ in range(int(sizes.integers(0, 3))):
            if sizes.random() < 0.5:
                assert by_take.u() == by_u.u()
            else:
                assert by_take._rng.random(2).tolist() == by_u._rng.random(2).tolist()
    assert by_take.take(block) == [by_u.u() for _ in range(block)]


def test_u_returns_python_float():
    buf = RandomBuffer(stream(1, 2), block=4)
    assert all(type(buf.u()) is float for _ in range(10))


def test_draws_on_buffer_uses_its_methods():
    buf = RandomBuffer(stream(1, 3), block=5)
    u, take = draws(buf)
    assert u == buf.u and take == buf.take


def test_draws_on_generator_take_matches_scalar_draws():
    u, take = draws(stream(7, 1))
    ref = stream(7, 1)
    for k in (0, 1, 5, 0, 17, 3):
        assert take(k) == [ref.random() for _ in range(k)]
        x = u()
        assert type(x) is float and x == ref.random()
