"""Property tests: multi-tile packed passes are bit-exact.

Passes wider than one :data:`~repro.engine.packed.TILE_WIDTH` tile are split
into tiles and stitched back together.  The tiled simulator (default tile),
a small-tile one and an untiled one (``tile_width=None``) must all equal the
scalar :mod:`repro.sim` reference, bit for bit, on random circuits covering
every gate type, random DFF init values, and widths straddling every
alignment boundary (1, 63, 64, 65, 128, 129, and non-multiples of 64 past
the tile width).  The suite runs with ``REPRO_CHECK_KERNELS=1`` armed (see
``tests/conftest.py``), so the kernels are structurally verified before
exec and every pass is range-checked.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.packed import PackedSimulator, pack_vectors
from repro.sim.logicsim import CombinationalSimulator
from test_engine_properties import _random_circuit_all_gates

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Lane counts chosen to straddle word and tile boundaries; the >128 ones
#: span several tiles and end in a partial one.
WIDTHS = [1, 63, 64, 65, 128, 129, 200, 320, 391]


def _simulators(circuit):
    return [
        PackedSimulator(circuit),
        PackedSimulator(circuit, tile_width=64),
        PackedSimulator(circuit, tile_width=None),
    ]


@SLOW
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(WIDTHS))
def test_backends_match_scalar_combinational(seed, width):
    rng = random.Random(seed)
    circuit = _random_circuit_all_gates(seed, num_dffs=rng.randint(0, 3))
    scalar = CombinationalSimulator(circuit)
    vectors = [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(width)
    ]
    states = [
        {q: rng.randint(0, 1) for q in circuit.dffs} for _ in range(width)
    ]
    reference_outputs = [scalar.outputs(v, s) for v, s in zip(vectors, states)]
    reference_next = [scalar.next_state(v, s) for v, s in zip(vectors, states)]
    reference_default = [scalar.outputs(v) for v in vectors]
    for sim in _simulators(circuit):
        assert sim.outputs_batch(vectors, states) == reference_outputs
        assert sim.next_state_batch(vectors, states) == reference_next
        # Default state (ff.init) path.
        assert sim.outputs_batch(vectors) == reference_default


@SLOW
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(WIDTHS))
def test_backends_match_wordwise(seed, width):
    # Word-level APIs: the exact words (not just extracted lanes) must agree,
    # proving the tile stitching leaks nothing past the lane mask.
    rng = random.Random(seed)
    circuit = _random_circuit_all_gates(seed, num_dffs=rng.randint(0, 3))
    input_words = pack_vectors(
        [{net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(width)],
        circuit.inputs,
    )
    sims = _simulators(circuit)
    reference = sims[-1]
    ref_eval = reference.eval_words(input_words, width=width)
    ref_step = reference.step_words(input_words, None, width=width)
    for sim in sims[:-1]:
        assert sim.eval_words(input_words, width=width) == ref_eval
        assert sim.step_words(input_words, None, width=width) == ref_step
