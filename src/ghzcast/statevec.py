"""Dense pure-state simulation of few-qubit registers, as batches of states.

Conventions used throughout the package:

- A state over k qubits is a row of 2**k real amplitudes. U states of
  the same width form one (U, 2**k) float64 batch, one state per row, and
  a single state is a batch of one row. Amplitudes stay real because the
  preparations are real and so are CNOT, H, Z, swaps and computational or
  Hadamard measurements; check_rows and the measuring kernels refuse a
  batch of any other dtype.
- A stream of T tuples, such as the tuple stream of a run or the streams
  of several runs stacked, holds few distinct states, so it is given as
  (states, index): its distinct states as a (U, 2**k) batch, and a (T,)
  index naming the row of each tuple, tuple t being states[index[t]]. The
  gate kernels act on the distinct states and leave the index as it is; a
  dense batch of one state per tuple is the stream with index
  np.arange(T).
- Qubit j corresponds to bit j of the flat index, so qubit 0 is the least
  significant bit and basis label text (most significant first) matches
  BitVector text.
- Every measurement is in the Hadamard or the computational basis, so a
  basis is one bit: the measuring kernels take a boolean hadamard mask,
  one bool for all measured qubits, one per measured qubit, or a (U, k)
  array for bases that differ between distinct states. A Hadamard-basis
  measurement is simulated by rotating the qubit with H and measuring in
  the computational basis; outcome 0 means the plus state and outcome 1
  means the minus state.

The *_rows kernels act on every row of a batch at once and never mutate
their input; they do not check norms, so callers check a batch with
check_rows between stages. There are no single-state gate wrappers: the
preparations return one-row batches. Measurement takes a stream.
outcome_law gives each distinct state's probability of every outcome of
the measured qubits, and pick_from draws each tuple's outcome bits from
such a law, so a pick from a law known in advance builds no state;
project_rows projects every tuple onto given outcomes, returning each
branch's weight and the normalised residual state of the unmeasured
qubits; sample_rows is a pick and a projection in one, bits and
residuals, which is all the protocol reads of a state it keeps;
measure_rows also rebuilds every whole collapsed state in the physical
frame, for gates that act after the measurement. All of them rotate,
square and sum each distinct state once, in one outcome-major copy, an
axis permutation that puts each outcome's amplitudes in one block, and
return their states in the stream form: one per distinct pair of a state
and an outcome, with each tuple's index (see sample_rows).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bitvec import BitVector

__all__ = [
    "MAX_QUBITS",
    "width",
    "check_rows",
    "hadamard_product_rows",
    "hadamard_rows",
    "cnot_rows",
    "phase_flip_rows",
    "swap_rows",
    "append_rows",
    "outcome_law",
    "pick_from",
    "project_rows",
    "sample_rows",
    "measure_rows",
    "prepare_basis",
    "ghz_layers",
    "prepare_ghz",
    "ghz_row",
]

MAX_QUBITS = 24
NORM_TOL = 1e-10

_SQRT_HALF = np.sqrt(0.5)


def _check_width(num_qubits: int) -> None:
    if not 0 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} outside 0..{MAX_QUBITS}")


def _check_real(batch: np.ndarray) -> None:
    if batch.dtype != np.float64:
        raise ValueError(f"amplitudes must be float64, not {batch.dtype}")


def width(batch: np.ndarray) -> int:
    """Qubit count of the states in a (T, 2**k) batch."""
    return batch.shape[-1].bit_length() - 1


def check_rows(batch: np.ndarray) -> None:
    """Validate a float64 batch: power-of-two rows within the qubit cap, each of norm 1."""
    _check_real(batch)
    if batch.ndim != 2 or batch.shape[1] != 1 << width(batch):
        raise ValueError(f"batch of shape {batch.shape} is not (T, 2**k)")
    _check_width(width(batch))
    worst = np.max(np.abs(np.sum(batch**2, axis=1) - 1.0), initial=0.0)
    if worst > NORM_TOL:
        raise ValueError(f"state norm deviates from 1 by {worst} beyond {NORM_TOL}")


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {num_qubits}-qubit state")


def hadamard_product_rows(signs: np.ndarray) -> np.ndarray:
    """One product state per row of signs: qubit j plus (0) or minus (1)."""
    signs = np.asarray(signs, dtype=np.uint32)
    n = signs.shape[1]
    minus_masks = signs @ (np.uint32(1) << np.arange(n, dtype=np.uint32))
    idx = np.arange(1 << n, dtype=np.uint32)
    sign = 1.0 - 2.0 * (np.bitwise_count(idx & minus_masks[:, None]) & 1)
    return sign * (0.5 ** (n / 2))


def _hadamard_axis(x: np.ndarray, qubit: int) -> None:
    """H in place on one qubit of the amplitude axis of a C-contiguous (outer, 2**k, inner) array."""
    outer, dim, inner = x.shape
    _check_qubit(dim.bit_length() - 1, qubit)
    pairs = x.reshape(outer * (dim >> (qubit + 1)), 2, (1 << qubit) * inner)
    low, high = pairs[:, 0], pairs[:, 1]
    total = low + high
    np.subtract(low, high, out=high)
    low[...] = total
    pairs *= _SQRT_HALF


def hadamard_rows(batch: np.ndarray, qubit: int) -> np.ndarray:
    out = batch.copy()
    _hadamard_axis(out.reshape(out.shape[0], out.shape[1], 1), qubit)
    return out


def cnot_rows(batch: np.ndarray, control: int, target: int) -> np.ndarray:
    if control == target:
        raise ValueError("control and target must differ")
    num_qubits = width(batch)
    _check_qubit(num_qubits, control)
    _check_qubit(num_qubits, target)
    idx = np.arange(batch.shape[1])
    return batch[:, idx ^ (((idx >> control) & 1) << target)]


def phase_flip_rows(batch: np.ndarray, qubit: int) -> np.ndarray:
    """Pauli Z: negate every amplitude where the qubit is 1."""
    _check_qubit(width(batch), qubit)
    out = batch.copy()
    out.reshape(batch.shape[0], batch.shape[1] >> (qubit + 1), 2, 1 << qubit)[:, :, 1] *= -1.0
    return out


def swap_rows(batch: np.ndarray, a: int, b: int) -> np.ndarray:
    """Relabel two qubits of every row."""
    num_qubits = width(batch)
    _check_qubit(num_qubits, a)
    _check_qubit(num_qubits, b)
    # axis 0 is the batch; axis 1 + i holds qubit num_qubits - 1 - i
    view = batch.reshape((batch.shape[0],) + (2,) * num_qubits)
    return np.swapaxes(view, num_qubits - a, num_qubits - b).copy().reshape(batch.shape)


def append_rows(batch: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Join every row with the one-row register extra, whose qubits go above the row's."""
    if width(batch) + width(extra) > MAX_QUBITS:
        raise ValueError("combined state exceeds the qubit cap")
    joint = extra[:, :, None] * batch[:, None, :]
    return joint.reshape(batch.shape[0], extra.shape[1] * batch.shape[1])


def _hadamard_mask(hadamard, rows: int, k: int) -> np.ndarray:
    """(T, k) mask of the measurements made in the Hadamard basis."""
    mask = np.asarray(hadamard)
    # any string, a basis name included, would convert to True
    if mask.dtype != bool:
        raise ValueError(f"the Hadamard mask must be boolean, not {mask.dtype}")
    return np.broadcast_to(mask, (rows, k))  # ValueError on a shape that does not fit


def _rotate(flat: np.ndarray, bits: Sequence[int], hadamard: np.ndarray) -> None:
    """Hadamard in place on index bit bits[j] of column t wherever hadamard[t, j] is set, in order.

    flat is a C-contiguous (2**q, U) array of amplitudes, one column per
    state, so the innermost loop of every pass spans whole rows of columns.
    """
    for j, bit in enumerate(bits):
        cols = hadamard[:, j]
        if cols.all():
            _hadamard_axis(flat[None], bit)
        elif cols.any():
            # a boolean column pick may come out in Fortran order
            some = np.ascontiguousarray(flat[:, cols])
            _hadamard_axis(some[None], bit)
            flat[:, cols] = some


def _outcome_axes(num_qubits: int, qubits: list[int]) -> list[int]:
    """Axis order that takes (U, 2, ..., 2) split states, axis 1 + i holding
    qubit num_qubits - 1 - i, to the outcome-major (2, ..., 2, U) order: the
    measured qubits first, the outcome's highest bit first, then the others."""
    measured = [num_qubits - q for q in reversed(qubits)]
    return measured + [a for a in range(1, num_qubits + 1) if a not in measured] + [0]


def _measured_view(states: np.ndarray, qubits: list[int], hadamard) -> np.ndarray:
    """Every distinct state in its measurement bases, as a new (2**k, 2**(q - k), U) array.

    Axis 0 indexes the outcome, qubits[0] its lowest bit, axis 1 the
    residual amplitude and axis 2 the state. The states are permuted into
    this outcome-major order by one copy and rotated there: each Hadamard
    pass adds and subtracts the same amplitude pairs whatever their memory
    order, so every float is the one the physical order would give.
    """
    _check_real(states)
    num_qubits, distinct, k = width(states), states.shape[0], len(qubits)
    if len(set(qubits)) != k:
        raise ValueError("measured qubits must be distinct")
    for q in qubits:
        _check_qubit(num_qubits, q)
    mask = _hadamard_mask(hadamard, distinct, k)
    split = states.reshape((distinct,) + (2,) * num_qubits)
    view = split.transpose(_outcome_axes(num_qubits, qubits)).copy()
    _rotate(view.reshape(1 << num_qubits, distinct), range(num_qubits - k, num_qubits), mask)
    return view.reshape(1 << k, 1 << (num_qubits - k), distinct)


def _marginal(view: np.ndarray, keep: bool) -> np.ndarray:
    """(2**k, U) probability of every outcome of every state of an outcome-major view.

    It is a running sum over axis 1, so each outcome's terms are added in
    ascending basis index whatever the batch size; np.sum and np.add.reduce
    add a lone row's terms pairwise, which can move the last bit of the
    marginal and so of the residual. Each axis-1 slice is squared over
    itself, unless keep asks for the view's amplitudes to survive.
    """
    marginal = np.square(view[:, 0], out=None if keep else view[:, 0])
    for i in range(1, view.shape[1]):
        marginal += np.square(view[:, i], out=None if keep else view[:, i])
    return marginal


def _pick(marginal: np.ndarray, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(T,) outcome of every tuple: the first whose cumulative marginal
    probability exceeds u[t] times its state's total."""
    outcomes, distinct = marginal.shape
    # the outcome of tuple t counts the cumulative sums of its state that
    # are <= r[t]. Complex numbers sort by real part, then imaginary part:
    # with the state as the real part and the sum as the imaginary part,
    # one sorted array holds every state's sums in turn, and one search
    # counts them for every tuple, comparing the same floats.
    sums = np.empty((distinct, outcomes), dtype=np.complex128)
    sums.real = np.arange(distinct)[:, None]
    np.cumsum(marginal.T, axis=1, out=sums.imag)
    draws = np.empty(index.size, dtype=np.complex128)
    draws.real = index
    draws.imag = np.asarray(u) * sums.imag[index, -1]
    counted = np.searchsorted(sums.ravel(), draws, side="right") - index * outcomes
    return np.minimum(counted, outcomes - 1)


def _project(
    view: np.ndarray, marginal: np.ndarray, index: np.ndarray, picked: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight and normalised residual of every distinct (state, outcome) pair, and each tuple's pair."""
    outcomes = view.shape[0]
    pairs, pair_index = np.unique(index * outcomes + picked, return_inverse=True)
    state, outcome = pairs // outcomes, pairs % outcomes
    weights = marginal[outcome, state]
    residual = view[outcome, :, state]
    residual /= np.sqrt(weights)[:, None]
    return weights, residual, pair_index


def outcome_law(states: np.ndarray, qubits: Sequence[int], hadamard) -> np.ndarray:
    """(U, 2**k) probability of every outcome of the measured qubits of each distinct state.

    Takes the states, qubits and bases of sample_rows; bit i of outcome j
    is the outcome of qubits[i]. The probabilities are the marginal that
    sample_rows picks from, the same floats.
    """
    return _marginal(_measured_view(states, list(qubits), hadamard), keep=False).T


def pick_from(law: np.ndarray, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (T, k) outcome bits of every tuple, drawn from an outcome law.

    law holds the (U, 2**k) outcome probabilities of U distinct states, as
    outcome_law returns them, index names each tuple's row and u holds its
    uniform draw. The pick is sample_rows', so a tuple gets the bits it
    would get from measuring its state there.
    """
    picked = _pick(law.T, np.asarray(index, dtype=np.intp), u)
    return (picked[:, None] >> np.arange(width(law))) & 1


def project_rows(
    states: np.ndarray, index: np.ndarray, qubits: Sequence[int], hadamard, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project every tuple of a stream onto the outcome bits[t] of its measurement.

    Takes the stream and bases of sample_rows and a (T, k) bit array in
    place of the draws. Returns, per distinct (state, outcome) pair the
    tuples name, in the form of sample_rows: its weight, the squared norm
    of the projection (the outcome's probability for a normalised state),
    a (V,) array; its normalised residual, (V, 2**(q - k)); and the (T,)
    index of each tuple's pair. An outcome of weight 0 has no residual.
    """
    qubits = list(qubits)
    view = _measured_view(states, qubits, hadamard)
    picked = np.asarray(bits, dtype=np.intp) @ (1 << np.arange(len(qubits)))
    return _project(view, _marginal(view, keep=True), np.asarray(index, dtype=np.intp), picked)


def sample_rows(
    states: np.ndarray, index: np.ndarray, qubits: Sequence[int], hadamard, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure the same qubits of every tuple of a stream; returns (T, k) bits and the residual.

    The stream is given as its distinct states, a (U, 2**q) batch, and
    index, which names the row of each of its T tuples: tuple t is in
    states[index[t]]. Every distinct state is rotated, squared and summed
    once, however many tuples share it; a dense batch is the stream with
    index np.arange(T). hadamard masks the qubits measured in the Hadamard
    basis, per distinct state. u holds one uniform draw in [0, 1) per
    tuple: the outcome is the first whose cumulative marginal probability
    exceeds u times the state's total. The residual is the normalised
    state each tuple leaves on its unmeasured qubits, in ascending qubit
    order, in the same form: (V, 2**(q - k)) distinct residuals, one per
    distinct (state, outcome) pair the tuples reached, and the (T,) index
    of each tuple's, one amplitude per residual when every qubit is
    measured. The measured qubits are simply gone from it, so no
    measurement frame has to be undone.

    It is pick_from on outcome_law followed by the projection of
    project_rows onto the picked outcomes, on one outcome-major view of
    the rotated states (see _measured_view): the marginal is a sum over
    its axis 1 and the residual of a pair is view[outcome, :, state].
    Every step acts column by column, so a tuple gets the same bits and
    residual as it would from a batch of its own.
    """
    qubits = list(qubits)
    view = _measured_view(states, qubits, hadamard)
    marginal = _marginal(view, keep=True)
    index = np.asarray(index, dtype=np.intp)
    picked = _pick(marginal, index, u)
    _, residual, pair_index = _project(view, marginal, index, picked)
    return (picked[:, None] >> np.arange(len(qubits))) & 1, residual, pair_index


def measure_rows(
    states: np.ndarray, index: np.ndarray, qubits: Sequence[int], hadamard, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sample_rows, returning each tuple's whole collapsed state instead.

    The collapsed states come in the stream's form, one per distinct
    (state, outcome) pair, with the index of each tuple's. They are in the
    physical frame: a qubit measured in the Hadamard basis is left in the
    plus or minus state, so later gates act on what a receiver would hold.
    """
    qubits = list(qubits)
    bits, residual, pair_index = sample_rows(states, index, qubits, hadamard, u)
    k, num_qubits, pairs = len(qubits), width(states), residual.shape[0]
    # the state and outcome of every pair, from any tuple that reached it
    state = np.empty(pairs, dtype=np.intp)
    state[pair_index] = index
    outcome = np.empty(pairs, dtype=np.intp)
    outcome[pair_index] = bits @ (1 << np.arange(k))
    # scatter into sample_rows' outcome-major view, rotate back there, then
    # put the axes back in physical order
    kept = np.zeros((1 << k, states.shape[1] >> k, pairs))
    kept[outcome, :, np.arange(pairs)] = residual
    mask = _hadamard_mask(hadamard, states.shape[0], k)[state]
    _rotate(kept.reshape(states.shape[1], pairs), range(num_qubits - k, num_qubits), mask)
    split = kept.reshape((2,) * num_qubits + (pairs,))
    physical = split.transpose(np.argsort(_outcome_axes(num_qubits, qubits)))
    return bits, physical.reshape(pairs, states.shape[1]), pair_index


def prepare_basis(labels: BitVector) -> np.ndarray:
    """Computational basis state |labels> as a one-row batch."""
    _check_width(labels.length)
    batch = np.zeros((1, 1 << labels.length))
    batch[0, labels.value] = 1.0
    return batch


def ghz_layers(n: int, topology: str = "linear") -> list[list[tuple[int, int]]]:
    """CNOT layers that grow |0..0> + |1..1> after a Hadamard on qubit 0.

    linear chains one CNOT per layer; log_depth doubles the entangled set each
    layer and therefore uses exactly ceil(lg n) layers.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if topology == "linear":
        return [[(i, i + 1)] for i in range(n - 1)]
    if topology == "log_depth":
        layers = []
        filled = 1
        while filled < n:
            layer = [(s, filled + s) for s in range(filled) if filled + s < n]
            layers.append(layer)
            filled += len(layer)
        return layers
    raise ValueError(f"unknown topology {topology!r}")


def prepare_ghz(n: int, topology: str = "linear") -> np.ndarray:
    """GHZ state over n qubits as a one-row batch."""
    layers = ghz_layers(n, topology)
    batch = hadamard_rows(prepare_basis(BitVector.zeros(n)), 0)
    for layer in layers:
        for control, target in layer:
            batch = cnot_rows(batch, control, target)
    return batch


def ghz_row(n: int) -> np.ndarray:
    """prepare_ghz(n) in closed form, equal to it under np.array_equal."""
    if n < 1:
        raise ValueError("need at least one qubit")
    _check_width(n)
    row = np.zeros((1, 1 << n))
    row[0, [0, (1 << n) - 1]] = _SQRT_HALF
    return row
