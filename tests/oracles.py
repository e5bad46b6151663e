"""Full-register oracle of the refrigerator: every round runs on the whole
``2^n`` diagonal in plain numpy, with no code shared with the package's
round kernel.  Rows along leading axes run side by side."""

import numpy as np

from coolsign.refrigerator import compression_permutation_for


def qubits(alpha, count):
    """``count`` fresh qubits at polarization ``alpha``, as one vector."""
    probs = np.ones(1)
    for _ in range(count):
        probs = np.kron(probs, [(1 + alpha) / 2, (1 - alpha) / 2])
    return probs


def attach(rows, fresh):
    """Append the qubits of ``fresh`` after the last qubit of each row."""
    return (rows[..., :, None] * fresh).reshape(rows.shape[:-1] + (-1,))


def sum_last(rows, m):
    """Each row with its last ``m`` qubits summed out."""
    return rows.reshape(rows.shape[:-1] + (-1, 1 << m)).sum(-1)


def full_round(rows, cfg, alpha):
    """One round: relabel by the staircase, sum the resets out, attach fresh
    resets."""
    moved = np.empty_like(rows)
    moved[..., compression_permutation_for(cfg).perm] = rows
    return attach(sum_last(moved, cfg.m), qubits(alpha, cfg.m))


def full_cycle(rows, cfg, alpha):
    """One recycle cycle: ``cfg.rounds`` rounds, then the target summed out and
    a fresh qubit appended.  Returns ``(recycled, evolved)``, where
    ``evolved`` is the register after the rounds."""
    for _ in range(cfg.rounds):
        rows = full_round(rows, cfg, alpha)
    halves = rows.reshape(rows.shape[:-1] + (2, -1))
    return attach(halves.sum(-2), qubits(alpha, 1)), rows
