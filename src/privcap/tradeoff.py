"""Classical-quantum ensembles, the region quantities, and the weighted
trade-off objectives with their ensemble-search maximizers.

An ensemble assigns a joint probability p(x, y) and a channel-input
density matrix rho_{x,y} to each pair of classical indices.  The Kraus
action ``channels.branch_outputs`` sends every branch to its conditional
output (Bob) state sum_k A_k rho A_k† and environment (Eve) state
rho_e[k, l] = Tr(A_k rho A_l†); all entropic quantities are evaluated
from those.  Because X and Y are classical,
conditional entropies are probability-weighted sums of branch entropies.

The searches are deterministic given the configuration seed: restart
seeds are pre-assigned per restart index from one xorshift64* stream,
so growing the restart count never changes earlier restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from .channels import KrausChannel, branch_outputs, warn_if_not_antidegradable
from .entropy import entropy_from_eigenvalues
from .linalg import tensor_product
from .search import XorShift64Star, coordinate_ascent, derive_seeds

PROB_FLOOR = 1e-15

# Probes per batched objective call in the searches (see coordinate_ascent).
# The objective recomputes only the branches a probe changed, so an extra
# row costs little more than its share of the mixing layer, and the rows a
# wrong guess discards cost less than the calls a lookahead of 1 makes.
# Lookahead 8 against 1, default SearchConfig, medians of 6 interleaved
# runs on a 2-core x86-64 machine: maximize_p on 1->10 cloning 5.7 s
# against 7.4 s, additivity_gap on erasure 0.25 5.5 s against 8.1 s.
LOOKAHEAD = 8

_PAULI = (
    np.eye(2, dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
)


@dataclass(frozen=True)
class TradeoffWeights:
    """Non-negative weights (lam, mu) of the trade-off objective."""

    lam: float
    mu: float

    def __post_init__(self):
        for name, value in (("lam", self.lam), ("mu", self.mu)):
            if not math.isfinite(value):
                raise ValueError(f"weight {name} must be finite, got {value}")
        if self.lam < 0 or self.mu < 0:
            raise ValueError(f"weights must be non-negative, got ({self.lam}, {self.mu})")


@dataclass(frozen=True)
class SearchConfig:
    """Ensemble-search configuration: {seed, restarts, iters, nx, ny}.

    ``iters`` sets the per-restart refinement budget: each restart
    evaluates its start once and then takes at most ``2 * iters``
    coordinate probes (one candidate ensemble each), split over three
    ``coordinate_ascent`` passes.  Speculative candidates that a batched
    call discards are not counted.  ``nx``/``ny`` cap the classical
    alphabet sizes; None means dim_in**2.
    """

    seed: int = 0
    restarts: int = 50
    iters: int = 200
    nx: int | None = None
    ny: int | None = None


@dataclass(frozen=True)
class CqEnsemble:
    """Joint distribution p(x, y) with channel-input states rho_{x,y}."""

    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        states = np.array(self.states, dtype=complex)
        if probs.ndim != 2:
            raise ValueError("probs must be a 2-D array over (x, y)")
        nx, ny = probs.shape
        if states.ndim != 4 or states.shape[:2] != (nx, ny) or states.shape[2] != states.shape[3]:
            raise ValueError(f"states shape {states.shape} inconsistent with probs {probs.shape}")
        for name, arr in (("probs", probs), ("states", states)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        if probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
        flat = states.reshape(-1, states.shape[-1], states.shape[-1])
        herm = float(np.abs(flat - flat.conj().transpose(0, 2, 1)).max())
        if herm > 1e-8:
            raise ValueError(f"a conditional state deviates from Hermiticity by {herm:.3e}")
        traces = np.einsum("nii->n", flat).real
        if np.abs(traces - 1.0).max() > 1e-8:
            raise ValueError("a conditional state does not have unit trace")
        if float(np.linalg.eigvalsh(flat).min()) < -1e-8:
            raise ValueError("a conditional state has a negative eigenvalue")
        probs.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def nx(self) -> int:
        return self.probs.shape[0]

    @property
    def ny(self) -> int:
        return self.probs.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[-1]


@dataclass(frozen=True)
class CqEvaluation:
    """All conditional/averaged output and environment states of an ensemble
    through a channel, together with the entropies used by the region bounds
    and the searches.

    Conditional states rho_b_x / rho_e_x are normalized; rows with
    p(x) = 0 hold maximally mixed placeholders and carry zero weight.
    h_in_x is the averaged input entropy sum_xy p(x, y) H(rho_{x,y}).
    A batched evaluation (a search objective's stack of candidates)
    carries a leading axis of one row per ensemble on every field, so its
    entropies are (B,) arrays; ``evaluate_ensemble`` returns one ensemble
    with float entropies.
    """

    probs: np.ndarray
    rho_b_xy: np.ndarray
    rho_e_xy: np.ndarray
    rho_b_x: np.ndarray
    rho_e_x: np.ndarray
    rho_b: np.ndarray
    rho_e: np.ndarray
    h_b: float | np.ndarray
    h_b_x: float | np.ndarray
    h_b_xy: float | np.ndarray
    h_e_x: float | np.ndarray
    h_e_xy: float | np.ndarray
    h_e: float | np.ndarray
    h_in_x: float | np.ndarray


@dataclass(frozen=True)
class RegionQuantities:
    """Right-hand sides of the three region inequalities at one ensemble
    ((B,) arrays for a batched ``CqEvaluation``)."""

    rp: float | np.ndarray
    ps: float | np.ndarray
    rps: float | np.ndarray


def _eigvals_psd(batch: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of small Hermitian PSD matrices (2x2 analytic)."""
    d = batch.shape[-1]
    if d == 2:
        a = batch[..., 0, 0].real
        c = batch[..., 1, 1].real
        half = 0.5 * (a + c)
        r = np.sqrt(0.25 * (a - c) ** 2 + np.abs(batch[..., 0, 1]) ** 2)
        return np.concatenate([(half - r)[..., None], (half + r)[..., None]], axis=-1)
    return np.linalg.eigvalsh(batch)


def _entropies_psd(batch: np.ndarray) -> np.ndarray:
    # np.maximum is the cheaper np.clip here: an eigenvalue at or below
    # entropy.WEIGHT_FLOOR contributes 0 whichever of them zeroes it
    return entropy_from_eigenvalues(np.maximum(_eigvals_psd(batch), 0.0))


def _expect(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise sum_n p[b, n] x[b, n, ...] for (B, n) weights.

    A stacked (1, n) @ (n, m) product runs the BLAS dot / gemv of
    ``np.dot`` and ``np.tensordot`` on each row, so a row of the batch is
    bitwise the unbatched value; an elementwise product summed by numpy
    would associate differently.
    """
    rows, n = p.shape
    return np.matmul(p[:, None, :], x.reshape(rows, n, -1)).reshape(x.shape[:1] + x.shape[2:])


def _branches(kstack: np.ndarray, states: np.ndarray):
    """Per-branch layer: (n, d, d) input states -> rho_b, rho_e and the
    entropies H(rho_b), H(rho_e), H(rho_in) of each branch.

    A branch's results depend on its own input state alone, bit for bit,
    whichever other branches share the call.
    """
    rho_b, rho_e = branch_outputs(kstack, states)
    return rho_b, rho_e, _entropies_psd(rho_b), _entropies_psd(rho_e), _entropies_psd(states)


def _system(probs: np.ndarray, p_x: np.ndarray, by_xy: np.ndarray, h_xy: np.ndarray):
    """Mixing layer of one output system over B ensembles of one shape.

    ``probs`` is (B, nx, ny), ``p_x`` its sums over y, ``by_xy`` the
    (B, nx, ny, d, d) branch states and ``h_xy`` their (B, nx*ny)
    entropies.  Returns the conditional states per x, the average state,
    and H, H(.|X) and H(.|XY).  Conditional states are normalized; where
    p(x) = 0 they are maximally mixed placeholders of zero weight.  The
    conditional and average states share one eigen-solve.
    """
    rows, nx, ny = probs.shape
    d = by_xy.shape[-1]
    summed = np.einsum("bxy,bxyij->bxij", probs, by_xy)
    safe = p_x > PROB_FLOOR
    denom = np.where(safe, p_x, 1.0)[..., None, None]
    cond = np.where(safe[..., None, None], summed / denom, np.eye(d) / d)
    p_flat = probs.reshape(rows, nx * ny)
    avg = _expect(p_flat, by_xy.reshape(rows, nx * ny, d, d))
    h = _entropies_psd(np.concatenate([cond, avg[:, None]], axis=1))
    h_x = _expect(np.where(safe, p_x, 0.0), h[:, :-1])
    return cond, avg, h[:, -1], h_x, _expect(p_flat, h_xy)


def _mix(probs: np.ndarray, rho_b, rho_e, h_b_xy, h_e_xy, h_in_xy) -> CqEvaluation:
    """Mixing layer: the evaluation of B ensembles from their branch results.

    ``probs`` is (B, nx, ny); the branch results are those of
    ``_branches`` by row and branch, (B, nx*ny, ...) and C-contiguous.
    """
    rho_b_xy = rho_b.reshape(probs.shape + rho_b.shape[2:])
    rho_e_xy = rho_e.reshape(probs.shape + rho_e.shape[2:])
    p_x = probs.sum(axis=2)
    rho_b_x, rho_b_bar, h_b, h_b_x, h_b_xy = _system(probs, p_x, rho_b_xy, h_b_xy)
    rho_e_x, rho_e_bar, h_e, h_e_x, h_e_xy = _system(probs, p_x, rho_e_xy, h_e_xy)
    return CqEvaluation(
        probs=probs,
        rho_b_xy=rho_b_xy,
        rho_e_xy=rho_e_xy,
        rho_b_x=rho_b_x,
        rho_e_x=rho_e_x,
        rho_b=rho_b_bar,
        rho_e=rho_e_bar,
        h_b=h_b,
        h_b_x=h_b_x,
        h_b_xy=h_b_xy,
        h_e_x=h_e_x,
        h_e_xy=h_e_xy,
        h_e=h_e,
        h_in_x=_expect(probs.reshape(len(probs), -1), h_in_xy),
    )


def _bundle(kstack: np.ndarray, probs: np.ndarray, states: np.ndarray) -> CqEvaluation:
    """Evaluate B ensembles of one alphabet shape at once.

    ``probs`` is (B, nx, ny) and ``states`` (B, nx*ny, d, d); every field
    of the result carries the leading B axis, and each row equals the
    evaluation of that ensemble alone, bit for bit.  This is the mixing
    layer over every branch freshly evaluated.
    """
    rows, nb, d = states.shape[:3]
    fresh = _branches(kstack, states.reshape(rows * nb, d, d))
    return _mix(probs, *(f.reshape((rows, nb) + f.shape[1:]) for f in fresh))


def evaluate_ensemble(ch: KrausChannel, ens: CqEnsemble) -> CqEvaluation:
    """Push every ensemble branch through the channel and collect states/entropies."""
    if ens.dim != ch.dim_in:
        raise ValueError(f"ensemble states have dim {ens.dim}, channel expects {ch.dim_in}")
    ev = _bundle(ch.kraus_stack, ens.probs[None], ens.states.reshape(1, -1, ens.dim, ens.dim))
    rows = {f.name: getattr(ev, f.name)[0] for f in fields(ev)}
    return CqEvaluation(**{k: v if v.ndim else float(v) for k, v in rows.items()})


def region_quantities(ev: CqEvaluation) -> RegionQuantities:
    """rp = I(YX;B), ps = I(Y;B|X) - I(Y;E|X), rps = I(YX;B) - I(Y;E|X)."""
    i_y_e_x = ev.h_e_x - ev.h_e_xy
    rp = ev.h_b - ev.h_b_xy
    ps = (ev.h_b_x - ev.h_b_xy) - i_y_e_x
    return RegionQuantities(rp=rp, ps=ps, rps=rp - i_y_e_x)


def objective_p(ev: CqEvaluation, w: TradeoffWeights) -> float | np.ndarray:
    """Weighted trade-off objective rp + lam*ps + mu*rps."""
    q = region_quantities(ev)
    return q.rp + w.lam * q.ps + w.mu * q.rps


def pauli_symmetrize(ens: CqEnsemble) -> CqEnsemble:
    """Extend the X register with a uniform Pauli index j and conjugate each
    branch state by that Pauli (qubit inputs only)."""
    if ens.dim != 2:
        raise ValueError("Pauli symmetrization is defined for qubit inputs")
    nx, ny = ens.probs.shape
    probs = np.repeat(ens.probs / 4.0, 4, axis=0)
    states = np.empty((4 * nx, ny, 2, 2), dtype=complex)
    for x in range(nx):
        for j, sigma in enumerate(_PAULI):
            states[4 * x + j] = sigma @ ens.states[x] @ sigma.conj().T
    return CqEnsemble(probs, states)


def tensor_ensembles(a: CqEnsemble, b: CqEnsemble) -> CqEnsemble:
    """Product ensemble for a product channel; indices of ``a`` are most significant."""
    probs = np.einsum("xy,uv->xuyv", a.probs, b.probs).reshape(a.nx * b.nx, a.ny * b.ny)
    d = a.dim * b.dim
    states = np.empty((a.nx * b.nx, a.ny * b.ny, d, d), dtype=complex)
    for xa in range(a.nx):
        for xb in range(b.nx):
            for ya in range(a.ny):
                for yb in range(b.ny):
                    states[xa * b.nx + xb, ya * b.ny + yb] = tensor_product(
                        a.states[xa, ya], b.states[xb, yb]
                    )
    return CqEnsemble(probs, states)


# ---------------------------------------------------------------------------
# Ensemble parameterization and the restart engine
# ---------------------------------------------------------------------------


class _ParamSpace:
    """Maps a flat real vector to (probs, states).

    Probabilities are normalized squares of the first nx*ny entries.
    Mixed states come from purifications on a doubled space: the 2d**2
    remaining reals per branch form a complex d x d matrix M and the
    state is M M† / Tr(M M†).  Pure states use a complex d-vector the
    same way.
    """

    def __init__(self, nx: int, ny: int, d: int, mixed: bool):
        self.nx = nx
        self.ny = ny
        self.d = d
        self.mixed = mixed
        self.nb = nx * ny
        self.spp = 2 * d * d if mixed else 2 * d
        self.size = self.nb + self.nb * self.spp

    def decode(self, theta: np.ndarray):
        """(B, size) parameters -> (B, nx, ny) probs and (B, nb, d, d) states."""
        rows = len(theta)
        states = self.decode_states(theta[:, self.nb:].reshape(rows * self.nb, self.spp))
        return self.decode_probs(theta), states.reshape(rows, self.nb, self.d, self.d)

    def decode_probs(self, theta: np.ndarray) -> np.ndarray:
        """(B, size) parameters -> (B, nx, ny) probabilities."""
        nb = self.nb
        q = theta[:, :nb]
        w = q * q
        tot = w.sum(axis=1)
        safe = tot > PROB_FLOOR
        probs = np.where(safe[:, None], w / np.where(safe, tot, 1.0)[:, None], 1.0 / nb)
        return probs.reshape(len(theta), self.nx, self.ny)

    def decode_states(self, s: np.ndarray) -> np.ndarray:
        """(n, spp) branch slices -> (n, d, d) states, each from its own slice."""
        d = self.d
        if self.mixed:
            m = (s[:, : d * d] + 1j * s[:, d * d :]).reshape(-1, d, d)
            g = m @ m.conj().transpose(0, 2, 1)
            tr = np.einsum("nii->n", g).real
            safe = tr > PROB_FLOOR
            return np.where(safe[:, None, None], g / np.where(safe, tr, 1.0)[:, None, None],
                            (np.eye(d) / d)[None])
        v = s[:, :d] + 1j * s[:, d:]
        n2 = np.einsum("ni,ni->n", v, v.conj()).real
        safe = n2 > PROB_FLOOR
        v = np.where(safe[:, None], v / np.sqrt(np.where(safe, n2, 1.0))[:, None],
                     np.eye(d, dtype=complex)[0][None])
        return np.einsum("ni,nj->nij", v, v.conj())

    def encode(self, probs: np.ndarray, states: np.ndarray) -> np.ndarray:
        q = np.sqrt(np.clip(probs.reshape(-1), 0.0, None))
        flat = states.reshape(self.nb, self.d, self.d)
        blocks = []
        if self.mixed:
            for rho in flat:
                w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
                m = v * np.sqrt(np.clip(w, 0.0, None))
                blocks.append(np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)]))
        else:
            for rho in flat:
                w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
                vec = v[:, -1] * np.sqrt(max(w[-1], 0.0))
                blocks.append(np.concatenate([vec.real, vec.imag]))
        return np.concatenate([q] + blocks)


class _ProbeObjective:
    """The search objective of one restart: ``combine`` of the evaluation
    of each (k, size) stack of candidates, as
    ``combine(_bundle(kstack, *space.decode(theta)))`` would give it.

    It keeps the per-branch results of its last call.  Each candidate is
    diffed against the nearest of those rows, branch slice by branch
    slice; only the branches whose slice changed are decoded and sent
    through the channel, in one batched call, and the others are copied.
    A coordinate probe changes no branch (a probability) or one (a
    state), and an unchanged slice decodes to the bitwise same branch, so
    every value is exact.
    """

    def __init__(self, kstack: np.ndarray, space: _ParamSpace, combine):
        self.kstack, self.space, self.combine = kstack, space, combine
        self.slices = None  # (m, nb, spp) bit patterns of the last call's rows
        self.branches = None  # their _branches results, by row and branch

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        space = self.space
        rows = len(theta)
        cur = np.ascontiguousarray(theta[:, space.nb:]).reshape(rows, space.nb, space.spp)
        bits = cur.view(np.int64)
        if self.slices is None:
            fresh = _branches(self.kstack, space.decode_states(cur.reshape(-1, space.spp)))
            merged = [f.reshape((rows, space.nb) + f.shape[1:]) for f in fresh]
        else:
            diff = (bits[:, None] != self.slices[None]).any(axis=-1)
            base = diff.sum(axis=-1).argmin(axis=1)
            changed = diff[np.arange(rows), base]
            merged = [old[base] for old in self.branches]
            if changed.any():
                fresh = _branches(self.kstack, space.decode_states(cur[changed]))
                for full, part in zip(merged, fresh):
                    full[changed] = part
        self.slices, self.branches = bits, merged
        return self.combine(_mix(space.decode_probs(theta), *merged))


def _basis_state(d: int, index: int) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[index % d, index % d] = 1.0
    return rho


def _fourier_state(d: int, index: int) -> np.ndarray:
    v = np.exp(2j * np.pi * (index % d) * np.arange(d) / d) / np.sqrt(d)
    return np.outer(v, v.conj())


def _diag_state(d: int, anchor: int, t: float) -> np.ndarray:
    """Interpolation between a basis state and the maximally mixed state."""
    w = np.full(d, t / d)
    w[anchor % d] += 1.0 - t
    return np.diag(w).astype(complex)


def _canonical_starts(d: int, nx_max: int, ny_max: int, mixed: bool):
    """Deterministic starting ensembles tried before any random restart."""
    starts = []
    nx0, ny0 = min(d, nx_max), min(d, ny_max)

    def uniform(nx, ny):
        return np.full((nx, ny), 1.0 / (nx * ny))

    by_y = np.array([[_basis_state(d, y) for y in range(ny0)] for _ in range(nx0)])
    starts.append((uniform(nx0, ny0), by_y))
    by_x = np.array([[_basis_state(d, x)] for x in range(min(d, nx_max))])
    starts.append((uniform(min(d, nx_max), 1), by_x))
    if mixed:
        mm = np.array([[np.eye(d, dtype=complex) / d for _ in range(ny0)] for _ in range(nx0)])
        starts.append((uniform(nx0, ny0), mm))
        nxd = min(2, nx_max)
        spread = np.empty((nxd, ny0, d, d), dtype=complex)
        for x in range(nxd):
            for y in range(ny0):
                t = (y + 1.0) / (ny0 + 1.0)
                spread[x, y] = _diag_state(d, 0 if x == 0 else d - 1, t)
        starts.append((uniform(nxd, ny0), spread))
    else:
        fb = np.array([[_fourier_state(d, x)] for x in range(min(d, nx_max))])
        starts.append((uniform(min(d, nx_max), 1), fb))
    return starts


def _random_start(rng: XorShift64Star, d: int, nx: int, ny: int, space_mixed: bool):
    nb = nx * ny
    probs = 0.5 + rng.uniforms(nb)
    probs = (probs / probs.sum()).reshape(nx, ny)
    spp = 2 * d * d if space_mixed else 2 * d
    raw = 2.0 * rng.uniforms(nb * spp) - 1.0
    space = _ParamSpace(nx, ny, d, space_mixed)
    theta = np.concatenate([np.sqrt(probs.reshape(-1)), raw])
    probs, states = space.decode(theta[None])
    return probs[0], states[0]


def _run_search(ch: KrausChannel, combine: Callable[[CqEvaluation], np.ndarray],
                cfg: SearchConfig, *, mixed: bool = True, ny_forced: int | None = None,
                extra_starts=()):
    """Random-restart coordinate search over ensembles; deterministic by seed.

    Each restart's objective (a ``_ProbeObjective``) evaluates a stack of
    candidate parameter vectors in one batched call, recomputing only the
    branches the probes changed; ``coordinate_ascent`` fills the stack with
    the probes it is about to make, which leaves the result as if the
    probes were made one at a time.

    Returns (best value, best probs, best states, diagnostics dict).
    """
    d = ch.dim_in
    nx_max = cfg.nx if cfg.nx else d * d
    ny_max = ny_forced if ny_forced else (cfg.ny if cfg.ny else d * d)
    if nx_max < 1 or ny_max < 1 or cfg.restarts < 1 or cfg.iters < 1:
        raise ValueError("search configuration values must be positive")
    kstack = ch.kraus_stack
    budget = 2 * cfg.iters
    seeds = derive_seeds(cfg.seed, cfg.restarts)
    canonical = _canonical_starts(d, nx_max, ny_max, mixed)
    ascend = partial(coordinate_ascent, lookahead=LOOKAHEAD)

    best_val = -math.inf
    best_probs = None
    best_states = None
    diag = {"budget_exhausted": False}

    def refine(probs0, states0):
        nx, ny = probs0.shape
        space = _ParamSpace(nx, ny, d, mixed)
        flat0 = np.asarray(states0, dtype=complex).reshape(nx * ny, d, d)
        f = _ProbeObjective(kstack, space, combine)
        theta0 = space.encode(np.asarray(probs0, dtype=float), flat0)
        v0 = f(theta0[None])[0]
        budget_a = max(2 * space.nb, int(0.4 * budget))
        budget_a = min(budget_a, budget - 2)
        v1, th1, used = ascend(
            f, theta0, v0, coords=range(space.nb), step=0.35, budget=budget_a
        )
        remaining = budget - used
        v2, th2, used2 = ascend(f, th1, v1, step=0.3, budget=remaining // 2)
        v3, th3, used3 = ascend(f, th2, v2, step=0.3, budget=remaining - used2)
        # still improving in the final stretch with the budget used up:
        # the refinement likely had not converged
        under_converged = bool(used2 + used3 >= remaining and v3 > v2 + 1e-12)
        probs, states = space.decode(th3[None])
        return float(v3), probs[0], states[0], under_converged

    start_list = [(np.asarray(p, dtype=float), np.asarray(s, dtype=complex))
                  for p, s in extra_starts]
    for r in range(cfg.restarts):
        rng = XorShift64Star(seeds[r])
        if r < len(canonical):
            start_list.append(canonical[r])
        elif r == len(canonical):
            start_list.append(_random_start(rng, d, nx_max, ny_max, mixed))
        else:
            nx = rng.randint(1, nx_max)
            ny = rng.randint(1, ny_max)
            start_list.append(_random_start(rng, d, nx, ny, mixed))

    for probs0, states0 in start_list:
        v, probs, states, under_converged = refine(probs0, states0)
        if v > best_val:
            best_val, best_probs, best_states = v, probs, states
            diag["budget_exhausted"] = under_converged
    return best_val, best_probs, best_states, diag


# ---------------------------------------------------------------------------
# Public maximizers
# ---------------------------------------------------------------------------


def maximize_p(ch: KrausChannel, w: TradeoffWeights, cfg: SearchConfig | None = None,
               starts=(), diagnostics: dict | None = None):
    """Maximize rp + lam*ps + mu*rps over finite ensembles of mixed inputs.

    Returns (best value in bits, achieving CqEnsemble).  ``starts`` may
    hold CqEnsembles used as additional warm starts before the seeded
    restarts.
    """
    cfg = cfg or SearchConfig()
    extra = [(e.probs, e.states) for e in starts]
    val, probs, states, diag = _run_search(
        ch, lambda ev: objective_p(ev, w), cfg, mixed=True, extra_starts=extra
    )
    if diagnostics is not None:
        diagnostics.update(diag)
    nx, ny = probs.shape
    ens = CqEnsemble(probs, states.reshape(nx, ny, ch.dim_in, ch.dim_in))
    return val, ens


def holevo_capacity(ch: KrausChannel, cfg: SearchConfig | None = None) -> float:
    """max I(X;B) over finite ensembles of pure input states."""
    cfg = cfg or SearchConfig()
    val, _, _, _ = _run_search(
        ch, lambda ev: ev.h_b - ev.h_b_x, cfg, mixed=False, ny_forced=1
    )
    return val


def private_information(ch: KrausChannel, cfg: SearchConfig | None = None) -> float:
    """max I(X;B) - I(X;E) over finite ensembles of mixed input states."""
    cfg = cfg or SearchConfig()
    val, _, _, _ = _run_search(
        ch, lambda ev: (ev.h_b - ev.h_b_x) - (ev.h_e - ev.h_e_x), cfg, mixed=True, ny_forced=1
    )
    return val


def cq_tradeoff_f(ch: KrausChannel, mu: float, cfg: SearchConfig | None = None) -> float:
    """Classical-quantum trade-off value f_mu = max I(X;B) + (1+mu)[H(B|X) - H(E|X)].

    Only the reduced input state of each branch matters, so the search
    runs directly over mixed conditional inputs.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    cfg = cfg or SearchConfig()
    val, _, _, _ = _run_search(
        ch,
        lambda ev: (ev.h_b - ev.h_b_x) + (1.0 + mu) * (ev.h_b_x - ev.h_e_x),
        cfg, mixed=True, ny_forced=1,
    )
    return val


def public_private_tradeoff(ch: KrausChannel, mu: float,
                            cfg: SearchConfig | None = None) -> float:
    """Public-private trade-off value P_mu = max I(X;B) + (1+mu)[I(Y;B|X) - I(Y;E|X)]."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    cfg = cfg or SearchConfig()
    val, _, _, _ = _run_search(
        ch, lambda ev: (ev.h_b - ev.h_b_x) + (1.0 + mu) * region_quantities(ev).ps,
        cfg, mixed=True,
    )
    return val


def quantum_dynamic_d(ch: KrausChannel, w: TradeoffWeights,
                      cfg: SearchConfig | None = None) -> float:
    """Quantum dynamic trade-off value
    D = max I(AX;B) + lam*I(A>BX) + mu*[I(X;B) + I(A>BX)]
    over classical-quantum ensembles with pure conditional states on a
    reference-input pair.

    With phi_x purifying rho_x through the channel isometry, every term
    reduces to entropies of rho_x and its output/environment images:
    I(AX;B) = H(B) + sum_x p(x)[H(rho_x) - H(E)_x] and
    I(A>BX) = sum_x p(x)[H(B)_x - H(E)_x].
    """
    cfg = cfg or SearchConfig()

    def combine(ev: CqEvaluation) -> np.ndarray:
        return (
            ev.h_b + (ev.h_in_x - ev.h_e_x)
            + w.lam * (ev.h_b_x - ev.h_e_x)
            + w.mu * (ev.h_b - ev.h_e_x)
        )

    val, _, _, _ = _run_search(ch, combine, cfg, mixed=True, ny_forced=1)
    return val


def antidegradable_value(ch: KrausChannel, w: TradeoffWeights, holevo: float) -> float:
    """Simplified trade-off value (1+mu) * max I(X;B) for antidegradable channels.

    Warns when the channel label does not mark it antidegradable.
    """
    warn_if_not_antidegradable(ch)
    return (1.0 + w.mu) * holevo


def derived_config(cfg: SearchConfig, salt: int) -> SearchConfig:
    """A config with a deterministically derived seed (for auxiliary searches)."""
    rng = XorShift64Star(cfg.seed ^ (0xD1F3 + salt))
    return replace(cfg, seed=rng.next_u64())
