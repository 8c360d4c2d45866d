"""Dense pure-state simulation of few-qubit registers, as batches of states.

Conventions used throughout the package:

- A state over k qubits is a row of 2**k real amplitudes. T states of
  the same width form one (T, 2**k) float64 batch, one state per row;
  the protocol simulates a whole tuple stream, or the streams of several
  runs stacked, as one batch, and a single state is a batch of one row.
  Amplitudes stay real because the preparations are real and so are CNOT,
  H, Z, swaps and computational or Hadamard measurements; check_rows and
  the measuring kernels refuse a batch of any other dtype.
- Qubit j corresponds to bit j of the flat index, so qubit 0 is the least
  significant bit and basis label text (most significant first) matches
  BitVector text.
- Every measurement is in the Hadamard or the computational basis, so a
  basis is one bit: the measuring kernels take a boolean hadamard mask,
  one bool for all measured qubits, one per measured qubit, or a (T, k)
  array for bases that differ between rows. A Hadamard-basis measurement
  is simulated by rotating the qubit with H and measuring in the
  computational basis; outcome 0 means the plus state and outcome 1 means
  the minus state.

The *_rows kernels act on every row of a batch at once and never mutate
their input; they do not check norms, so callers check a batch with
check_rows between stages. There are no single-state gate wrappers:
the preparations return one-row batches and distribution takes a batch.
Measurement comes in two forms: sample_rows returns the outcome bits and
the normalised residual state of the unmeasured qubits, which is all the
protocol reads; measure_rows also rebuilds every whole collapsed row in the
physical frame, for gates that act after the measurement. Both read the
amplitudes through one outcome-major view, an axis permutation that puts
each outcome's amplitudes in one block (see sample_rows).
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
    "sample_rows",
    "measure_rows",
    "prepare_basis",
    "ghz_layers",
    "prepare_ghz",
    "distribution",
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


def _hadamard_axis(x: np.ndarray, qubit: int) -> np.ndarray:
    """H on one qubit of the amplitude axis of an (outer, 2**k, inner) array."""
    outer, dim, inner = x.shape
    _check_qubit(dim.bit_length() - 1, qubit)
    view = x.reshape(outer * (dim >> (qubit + 1)), 2, (1 << qubit) * inner)
    out = np.empty_like(view)
    np.add(view[:, 0], view[:, 1], out=out[:, 0])
    np.subtract(view[:, 0], view[:, 1], out=out[:, 1])
    out *= _SQRT_HALF
    return out.reshape(x.shape)


def hadamard_rows(batch: np.ndarray, qubit: int) -> np.ndarray:
    return _hadamard_axis(batch[:, :, None], qubit)[:, :, 0]


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


def _rotate_cols(cols: np.ndarray, qubits: Sequence[int], hadamard: np.ndarray) -> np.ndarray:
    """Hadamard on qubit j of column t wherever hadamard[t, j] is set, in qubit order.

    cols is a batch in the transposed (2**k, T) layout, where the innermost
    loop of every pass spans whole columns of rows rather than runs of
    2**qubit amplitudes.
    """
    if not hadamard.any():
        return cols
    cols = np.ascontiguousarray(cols)[None]
    for j, q in enumerate(qubits):
        rows = hadamard[:, j]
        if rows.all():
            cols = _hadamard_axis(cols, q)
        elif rows.any():
            cols = cols.copy()
            cols[:, :, rows] = _hadamard_axis(cols[:, :, rows], q)
    return cols[0]


def sample_rows(
    batch: np.ndarray, qubits: Sequence[int], hadamard, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the same qubits of every row; returns (T, k) bits and the residual.

    hadamard masks the qubits measured in the Hadamard basis. u holds one
    uniform draw in [0, 1) per row: the outcome is the first whose
    cumulative marginal probability exceeds u times the row's total. The
    residual is the normalised state each row leaves on its unmeasured
    qubits, in ascending qubit order: a (T, 2**(q - k)) batch, one
    amplitude per row when every qubit is measured. The measured qubits are
    simply gone from it, so no measurement frame has to be undone.

    The kernel reads the rotated columns through one outcome-major view of
    shape (2**k, 2**(q - k), T): the measured qubits' axes are moved to the
    front, the highest bit of the outcome first, so axis 0 indexes the
    outcome (qubits[0] its lowest bit) and axis 1 the residual amplitude.
    The marginal is then a sum over axis 1 and the residual of row t is
    view[outcome, :, t]. That sum is a running sum, so each outcome's
    terms are added in ascending basis index whatever the batch size;
    np.sum and np.add.reduce add a lone row's terms pairwise, which can
    move the last bit of the marginal and so of the residual. The running
    sum adds the axis-1 slices one by one, in the order np.cumsum would.
    """
    _check_real(batch)
    qubits = list(qubits)
    num_qubits = width(batch)
    rows, k = batch.shape[0], len(qubits)
    if len(set(qubits)) != k:
        raise ValueError("measured qubits must be distinct")
    for q in qubits:
        _check_qubit(num_qubits, q)
    cols = _rotate_cols(batch.T, qubits, _hadamard_mask(hadamard, rows, k))

    # axis i of the split columns holds qubit num_qubits - 1 - i
    measured = [num_qubits - 1 - q for q in reversed(qubits)]
    split = cols.reshape((2,) * num_qubits + (rows,))
    view = np.moveaxis(split, measured, range(k)).reshape(1 << k, 1 << (num_qubits - k), rows)
    squares = view**2
    marginal = squares[:, 0]
    for i in range(1, squares.shape[1]):
        marginal += squares[:, i]
    cum = np.cumsum(marginal, axis=0)
    r = np.asarray(u) * cum[-1]
    picked = np.minimum(np.sum(cum <= r, axis=0), (1 << k) - 1)
    bits = (picked[:, None] >> np.arange(k)) & 1

    row = np.arange(rows)
    residual = view[picked, :, row]
    residual /= np.sqrt(marginal[picked, row])[:, None]
    return bits, residual


def measure_rows(
    batch: np.ndarray, qubits: Sequence[int], hadamard, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sample_rows, returning each row's whole collapsed state instead.

    Collapsed rows are returned in the physical frame: a qubit measured in
    the Hadamard basis is left in the plus or minus state, so later gates
    act on what a receiver would hold.
    """
    qubits = list(qubits)
    bits, residual = sample_rows(batch, qubits, hadamard, u)
    rows, k = bits.shape
    num_qubits = width(batch)
    # scatter into sample_rows' outcome-major view, then move the axes back
    kept = np.zeros((1 << k, batch.shape[1] >> k, rows))
    kept[bits @ (1 << np.arange(k)), :, np.arange(rows)] = residual
    measured = [num_qubits - 1 - q for q in reversed(qubits)]
    split = np.moveaxis(kept.reshape((2,) * num_qubits + (rows,)), range(k), measured)
    mask = _hadamard_mask(hadamard, rows, k)
    frame = _rotate_cols(split.reshape(batch.T.shape), qubits, mask)
    return bits, np.ascontiguousarray(frame.T)


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


def distribution(batch: np.ndarray, hadamard) -> np.ndarray:
    """Exact Born probabilities of each row, every qubit measured in the bases of the mask."""
    _check_real(batch)
    k = width(batch)
    cols = _rotate_cols(batch.T, range(k), _hadamard_mask(hadamard, batch.shape[0], k))
    return (cols**2).T
