"""Kraus channels: constructors, JSON documents, tensoring, and the channel action.

A channel is a list of Kraus operators A_k with sum_k A_k† A_k = I.
``branch_outputs`` is its one action on a stack of inputs: the output
(Bob) state sum_k A_k rho A_k† and the complementary environment (Eve)
state rho_e[k, l] = Tr(A_k rho A_l†), whose basis is the Kraus index.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import dag, tensor_product

KRAUS_COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by Kraus operators, each of shape (dim_out, dim_in)."""

    dim_in: int
    dim_out: int
    kraus: tuple
    label: str = "custom"
    params: tuple = ()
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(np.array(a, dtype=complex) for a in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for idx, a in enumerate(ops):
            if a.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {a.shape} does not match "
                    f"(dim_out, dim_in) = ({self.dim_out}, {self.dim_in})"
                )
            if not np.isfinite(a).all():
                raise ValueError(f"Kraus operator {idx} has a non-finite entry")
            a.setflags(write=False)
        s = sum(dag(a) @ a for a in ops)
        deficit = float(np.abs(s - np.eye(self.dim_in)).max())
        if deficit > KRAUS_COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus completeness violated: max |sum A†A - I| = {deficit:.3e}"
            )
        params = tuple(float(p) for p in self.params)
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"channel params must be finite, got {params}")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "params", params)
        stack = np.stack(ops)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)

    @property
    def kraus_stack(self) -> np.ndarray:
        """All Kraus operators as one (K, dim_out, dim_in) array."""
        return self._stack

    @property
    def num_kraus(self) -> int:
        return len(self.kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel output sum_k A_k rho A_k†."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise ValueError(f"input shape {rho.shape}, expected ({self.dim_in}, {self.dim_in})")
        return branch_outputs(self._stack, rho[None])[0][0]


def branch_outputs(kraus_stack: np.ndarray, states: np.ndarray):
    """Output and environment states of a stack of inputs rho_n.

    Returns (rho_b, rho_e) with rho_b[n] = sum_k A_k rho_n A_k† and
    rho_e[n][k, l] = Tr(A_k rho_n A_l†), the complementary-channel output.
    """
    tmp = kraus_stack[:, None] @ states[None]
    rho_b = np.einsum("knio,kjo->nij", tmp, kraus_stack.conj())
    rho_e = np.einsum("knio,lio->nkl", tmp, kraus_stack.conj())
    return rho_b, rho_e


def make_dephasing(p: float) -> KrausChannel:
    """Qubit dephasing channel that applies Z with probability p/2.

    Equivalent to keeping the input with probability 1-p and completely
    dephasing it in the computational basis with probability p; p=1 is
    the completely dephasing channel.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing probability {p} outside [0, 1]")
    eye = np.eye(2, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    kraus = [np.sqrt(1.0 - p / 2.0) * eye, np.sqrt(p / 2.0) * z]
    return KrausChannel(2, 2, tuple(kraus), label="dephasing", params=(p,))


def make_erasure(eps: float) -> KrausChannel:
    """Qubit erasure channel: passes the input with probability 1-eps,
    otherwise outputs the flag |e⟩ (basis index 2).

    The Kraus order is chosen so that the complementary channel equals
    the eps <-> 1-eps swapped erasure channel in the same basis
    convention (environment flag also at index 2).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability {eps} outside [0, 1]")
    embed = np.zeros((3, 2), dtype=complex)
    embed[0, 0] = 1.0
    embed[1, 1] = 1.0
    flag0 = np.zeros((3, 2), dtype=complex)
    flag0[2, 0] = 1.0
    flag1 = np.zeros((3, 2), dtype=complex)
    flag1[2, 1] = 1.0
    kraus = (np.sqrt(eps) * flag0, np.sqrt(eps) * flag1, np.sqrt(1.0 - eps) * embed)
    return KrausChannel(2, 3, kraus, label="erasure", params=(eps,))


def make_cloning(n: int) -> KrausChannel:
    """1->N universal cloning channel in the (N+1)-level symmetric-subspace basis.

    Kraus operator i (0 <= i < N) is
    (1/sqrt(D_N)) (sqrt(N-i) |i⟩⟨0| + sqrt(i+1) |i+1⟩⟨1|) with D_N = N(N+1)/2.
    N=1 reduces to the identity qubit channel.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"cloning N must be a positive integer, got {n}")
    delta = n * (n + 1) / 2.0
    kraus = []
    for i in range(n):
        a = np.zeros((n + 1, 2), dtype=complex)
        a[i, 0] = np.sqrt(n - i)
        a[i + 1, 1] = np.sqrt(i + 1)
        kraus.append(a / np.sqrt(delta))
    return KrausChannel(2, n + 1, tuple(kraus), label="cloning", params=(float(n),))


def make_identity(dim: int = 2) -> KrausChannel:
    """Noiseless channel on ``dim`` levels (single Kraus operator I)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return KrausChannel(dim, dim, (np.eye(dim, dtype=complex),), label="custom")


def tensor_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Parallel use of two channels; Kraus set {A_i ⊗ B_j} with i most significant."""
    kraus = tuple(tensor_product(ai, bj) for ai in a.kraus for bj in b.kraus)
    return KrausChannel(a.dim_in * b.dim_in, a.dim_out * b.dim_out, kraus, label="custom")


def is_antidegradable_label(ch: KrausChannel) -> bool:
    """Erasure with eps >= 1/2 or completely dephasing (p=1), by label and
    params, trusted only when the Kraus operators are the constructor's."""
    p = ch.params[0] if len(ch.params) == 1 else math.nan
    if ch.label == "erasure" and 0.5 <= p <= 1.0:
        ref = make_erasure(p)
    elif ch.label == "dephasing" and p == 1.0:
        ref = make_dephasing(1.0)
    else:
        return False
    return (ref.kraus_stack.shape == ch.kraus_stack.shape
            and float(np.abs(ref.kraus_stack - ch.kraus_stack).max()) <= KRAUS_COMPLETENESS_TOL)


def warn_if_not_antidegradable(ch: KrausChannel) -> None:
    if not is_antidegradable_label(ch):
        warnings.warn(
            f"channel labeled '{ch.label}' with params {ch.params} is not known "
            "to be antidegradable; the simplified formula may not apply",
            stacklevel=3,
        )


def load_channel(doc: dict) -> KrausChannel:
    """Build a validated channel from its JSON document.

    Schema: {"dim_in": int, "dim_out": int,
             "kraus": [[[re, im], ...] per row] per operator,
             "label": str (optional), "params": [real, ...] (optional)}.
    """
    if not isinstance(doc, dict):
        raise ValueError("channel document must be a JSON object")
    try:
        dim_in, dim_out, raw = doc["dim_in"], doc["dim_out"], doc["kraus"]
    except KeyError as exc:
        raise ValueError(f"channel document missing required field {exc}") from exc
    for name, dim in (("dim_in", dim_in), ("dim_out", dim_out)):
        if type(dim) is not int or dim <= 0:
            raise ValueError(f"'{name}' must be a positive integer, got {dim!r}")
    if not isinstance(raw, list) or not raw:
        raise ValueError("'kraus' must be a non-empty list of matrices")
    ops = []
    for idx, mat in enumerate(raw):
        try:
            arr = np.array(
                [[complex(entry[0], entry[1]) for entry in row] for row in mat],
                dtype=complex,
            )
        except (TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"Kraus operator {idx} is not a matrix of [re, im] pairs") from exc
        if arr.shape != (dim_out, dim_in):
            raise ValueError(
                f"Kraus operator {idx} has shape {arr.shape}, expected ({dim_out}, {dim_in})"
            )
        ops.append(arr)
    label = str(doc.get("label", "custom"))
    params = doc.get("params", [])
    # false for NaN, ±inf and integers beyond the float range
    if not isinstance(params, list) or not all(
        type(p) in (int, float) and abs(p) <= sys.float_info.max for p in params
    ):
        raise ValueError(f"'params' must be a list of finite reals, got {params!r}")
    return KrausChannel(dim_in, dim_out, tuple(ops), label=label, params=tuple(params))


def channel_document(ch: KrausChannel) -> dict:
    """Inverse of load_channel: a JSON-serializable description of the channel."""
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [[[[float(v.real), float(v.imag)] for v in row] for row in a] for a in ch.kraus],
        "label": ch.label,
        "params": list(ch.params),
    }
