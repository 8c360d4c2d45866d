"""Dense pure-state simulation of few-qubit registers, as batches of states.

Conventions used throughout the package:

- A state over k qubits is a row of 2**k complex amplitudes. T states of
  the same width form one (T, 2**k) complex128 batch, one state per row;
  the protocol simulates a whole tuple stream, or the streams of several
  runs stacked, as one batch, and a single state is a batch of one row.
- Qubit j corresponds to bit j of the flat index, so qubit 0 is the least
  significant bit and basis label text (most significant first) matches
  BitVector text.
- A Hadamard-basis measurement is simulated by rotating the qubit with H and
  measuring in the computational basis; outcome 0 means the plus state and
  outcome 1 means the minus state.

The *_rows kernels act on every row of a batch at once and never mutate
their input; they do not check norms, so callers check a batch with
check_rows between stages. There are no single-state gate wrappers:
the preparations return one-row batches and distribution takes a batch.
Measurement comes in two forms: sample_rows returns the outcome bits and
the normalised residual state of the unmeasured qubits, which is all the
protocol reads; measure_rows also rebuilds every whole collapsed row in the
physical frame, for gates that act after the measurement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bitvec import BitVector

__all__ = [
    "COMPUTATIONAL",
    "HADAMARD",
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

COMPUTATIONAL = "computational"
HADAMARD = "hadamard"

_SQRT_HALF = np.sqrt(0.5)


def _check_width(num_qubits: int) -> None:
    if not 0 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} outside 0..{MAX_QUBITS}")


def _check_norms(amplitudes: np.ndarray) -> None:
    norms = np.sum(amplitudes.real**2 + amplitudes.imag**2, axis=-1)
    worst = np.max(np.abs(norms - 1.0), initial=0.0)
    if worst > NORM_TOL:
        raise ValueError(f"state norm deviates from 1 by {worst} beyond {NORM_TOL}")


def width(batch: np.ndarray) -> int:
    """Qubit count of the states in a (T, 2**k) batch."""
    return batch.shape[-1].bit_length() - 1


def check_rows(batch: np.ndarray) -> None:
    """Validate a batch: power-of-two rows within the qubit cap, each of norm 1."""
    if batch.ndim != 2 or batch.shape[1] != 1 << width(batch):
        raise ValueError(f"batch of shape {batch.shape} is not (T, 2**k)")
    _check_width(width(batch))
    _check_norms(batch)


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
    return (sign * (0.5 ** (n / 2))).astype(np.complex128)


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


def _subset_key(num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Maps each basis index to the packed bits of the given qubits."""
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    key = np.zeros_like(idx)
    for b, q in enumerate(qubits):
        key |= ((idx >> q) & 1) << b
    return key


def _kept_index(num_qubits: int, qubits: Sequence[int], bits: np.ndarray) -> np.ndarray:
    """Basis indices consistent with each row's outcome bits, one row each.

    Column r of a row spreads r over the unmeasured qubits in ascending
    order, so it is the index of residual amplitude r.
    """
    rest = [q for q in range(num_qubits) if q not in qubits]
    free = np.arange(1 << len(rest), dtype=np.int64)
    index = np.zeros((bits.shape[0], free.size), dtype=np.int64)
    for b, q in enumerate(rest):
        index |= ((free >> b) & 1) << q
    for b, q in enumerate(qubits):
        index |= bits[:, b : b + 1] << q
    return index


def _hadamard_mask(bases, rows: int, k: int) -> np.ndarray:
    """(T, k) mask of the measurements made in the Hadamard basis."""
    names = np.asarray(bases, dtype=str)
    if names.shape[-1:] != (k,):
        raise ValueError("need one basis per measured qubit")
    unknown = set(names.ravel().tolist()) - {COMPUTATIONAL, HADAMARD}
    if unknown:
        raise ValueError(f"unknown basis {sorted(unknown)[0]!r}")
    return np.broadcast_to(names == HADAMARD, (rows, k))


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
    batch: np.ndarray, qubits: Sequence[int], bases, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the same qubits of every row; returns (T, k) bits and the residual.

    bases holds one basis per measured qubit, or a (T, k) array of them for
    bases that differ between rows. u holds one uniform draw in [0, 1) per
    row: the outcome is the first whose cumulative marginal probability
    exceeds u times the row's total. The residual is the normalised state
    each row leaves on its unmeasured qubits, in ascending qubit order: a
    (T, 2**(q - k)) batch, one amplitude per row when every qubit is
    measured. The measured qubits are simply gone from it, so no
    measurement frame has to be undone.
    """
    qubits = list(qubits)
    num_qubits = width(batch)
    rows, k = batch.shape[0], len(qubits)
    if len(set(qubits)) != k:
        raise ValueError("measured qubits must be distinct")
    for q in qubits:
        _check_qubit(num_qubits, q)
    cols = _rotate_cols(batch.T, qubits, _hadamard_mask(bases, rows, k))

    outcomes = 1 << k
    # bincount sums each row's probabilities per outcome in index order
    col_keys = _subset_key(num_qubits, qubits)[:, None] + np.arange(rows) * outcomes
    marginal = np.bincount(
        col_keys.ravel(),
        weights=(cols.real**2 + cols.imag**2).ravel(),
        minlength=rows * outcomes,
    ).reshape(rows, outcomes)
    cum = np.cumsum(marginal, axis=1)
    r = np.asarray(u) * cum[:, -1]
    picked = np.minimum(np.sum(cum <= r[:, None], axis=1), outcomes - 1)
    bits = (picked[:, None] >> np.arange(k)) & 1

    row = np.arange(rows)
    residual = cols[_kept_index(num_qubits, qubits, bits), row[:, None]]
    residual /= np.sqrt(marginal[row, picked])[:, None]
    return bits, residual


def measure_rows(
    batch: np.ndarray, qubits: Sequence[int], bases, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sample_rows, returning each row's whole collapsed state instead.

    Collapsed rows are returned in the physical frame: a qubit measured in
    the Hadamard basis is left in the plus or minus state, so later gates
    act on what a receiver would hold.
    """
    qubits = list(qubits)
    bits, residual = sample_rows(batch, qubits, bases, u)
    rows = batch.shape[0]
    kept = np.zeros((batch.shape[1], rows), dtype=np.complex128)
    kept[_kept_index(width(batch), qubits, bits), np.arange(rows)[:, None]] = residual
    frame = _rotate_cols(kept, qubits, _hadamard_mask(bases, rows, len(qubits)))
    return bits, np.ascontiguousarray(frame.T)


def prepare_basis(labels: BitVector) -> np.ndarray:
    """Computational basis state |labels> as a one-row batch."""
    _check_width(labels.length)
    batch = np.zeros((1, 1 << labels.length), dtype=np.complex128)
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


def distribution(batch: np.ndarray, bases: Sequence[str]) -> np.ndarray:
    """Exact Born probabilities of each row, every qubit measured in the given bases."""
    k = width(batch)
    cols = _rotate_cols(batch.T, range(k), _hadamard_mask(bases, batch.shape[0], k))
    return (np.abs(cols) ** 2).T
