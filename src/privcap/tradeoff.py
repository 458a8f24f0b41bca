"""Classical-quantum ensembles, the region quantities, and the weighted
trade-off objectives with their ensemble-search maximizers.

An ensemble assigns a joint probability p(x, y) and a channel-input
density matrix rho_{x,y} to each pair of classical indices.  Every
entropy is that of the output (Bob) or environment (Eve) image of a
branch state, a conditional state rho_x = sum_y p(y|x) rho_{x,y}, or
the average state.  The channel is linear, so those states are mixed
from the inputs, and ``channels.branch_outputs`` acts once per system
read.  Because X and Y are classical, conditional entropies are
probability-weighted sums of branch entropies.

The searches are deterministic given the configuration seed: restart
seeds are pre-assigned per restart index from one xorshift64* stream,
so growing the restart count never changes earlier restarts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .channels import KrausChannel, branch_outputs, warn_if_not_antidegradable
from .entropy import entropy_from_eigenvalues
from .search import XorShift64Star, coordinate_ascent, derive_seeds

PROB_FLOOR = 1e-15

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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in ("nx", "ny"):
                continue
            if type(value) is bool or not isinstance(value, numbers.Integral):
                raise ValueError(f"search {f.name} must be an integer, got {value!r}")
            if f.name != "seed" and value < 1:
                raise ValueError(f"search {f.name} must be at least 1, got {value!r}")


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
    """The seven entropies of an ensemble through a channel from which the
    region bounds and every search objective are formed.

    For the output B and environment E: h_b = H(B), h_b_x = H(B|X),
    h_b_xy = H(B|XY), and likewise h_e, h_e_x, h_e_xy.  h_in_x is the
    averaged input entropy sum_xy p(x, y) H(rho_{x,y}).  A batched
    evaluation (a search objective's stack of candidates) holds (B,)
    arrays, one entry per ensemble, and None in the fields its objective
    does not read; ``evaluate_ensemble`` returns one ensemble with float
    entropies.
    """

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


# Each CqEvaluation field is the entropy of one stack of states.  Rows: B, E
# and the channel input; columns: the average state, the conditional states
# (summed with weights p(x)) and the branch states (weights p(x, y)).
_STACKS = (("h_b", "h_b_x", "h_b_xy"), ("h_e", "h_e_x", "h_e_xy"), (None, None, "h_in_x"))
_ALL_FIELDS = tuple(f.name for f in fields(CqEvaluation))  # in field order


def _joined(arrays: list) -> np.ndarray:
    """np.concatenate, without the copy of a lone array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _solve(stacks: dict) -> dict:
    """Spectra step: the entropies of each named (n, d, d) stack, with one
    ``_entropies_psd`` call per matrix size.  A matrix's entropy does not
    depend on what shares its call: each is bitwise its stack's alone."""
    solved = {}
    for d in {s.shape[-1] for s in stacks.values()}:
        names = [name for name, s in stacks.items() if s.shape[-1] == d]
        h, start = _entropies_psd(_joined([stacks[name] for name in names])), 0
        for name in names:
            solved[name], start = h[start:start + len(stacks[name])], start + len(stacks[name])
    return solved


def _evaluate(ch: KrausChannel, probs: np.ndarray, inputs, reads, kept=None, changed=None):
    """The fields ``reads`` of R ensembles of one alphabet shape, the others None.

    ``probs`` is (R, nx, ny) and ``inputs`` holds the (n, d, d) input
    states of the branches to evaluate: all R*nx*ny in row order, or,
    given ``kept`` (an earlier call's probabilities, per-branch inputs
    and entropies and per-x conditional entropies, gathered by row),
    those the (R, nx*ny) mask ``changed`` flags; None when it flags none.
    A conditional state is then solved again only where its row's p(x, .)
    differs in some bit from the kept one or a branch of its x changed.
    Mixing in the input space, then one channel pass per system read, then
    spectra, then sums.  Returns the evaluation and the arrays a later
    call may keep.  A row's fields do not depend on the other rows, bit
    for bit.
    """
    rows, nx, ny = probs.shape
    cache = {}

    def keep(key, part, renew, width):
        cache[key] = part.reshape((rows, width) + part.shape[1:]) if kept is None else kept[key]
        if kept is not None and part is not None:
            cache[key][renew] = part
        return cache[key]

    # mixing step, in the input space; where p(x) = 0 the conditional input
    # is a zero-weight placeholder
    states, d = keep("inputs", inputs, changed, nx * ny), ch.dim_in
    p_x = probs.sum(axis=2)
    safe = (p_x > PROB_FLOOR)[..., None, None]
    summed = np.einsum("bxy,bxyij->bxij", probs, states.reshape(probs.shape + (d, d)))
    cond = np.where(safe, summed / np.where(safe, p_x[..., None, None], 1.0), np.eye(d) / d)
    cache["probs"], renew = probs, None
    if kept is not None:  # the conditional states whose p(x, .) or x's branches changed
        moved = probs.view(np.int64) != kept["probs"].view(np.int64)
        renew = (changed.reshape(rows, nx, ny) | moved).any(axis=2)
        cond = cond[renew]
    columns = (_expect(probs.reshape(rows, -1), states), cond.reshape(-1, d, d), inputs)
    stacks = {}
    for names, system in zip(_STACKS, ("B", "E", None)):  # channel step
        read = [(name, c) for name, c in zip(names, columns) if name in reads and c is not None]
        if read:
            out, start = _joined([c for _, c in read]), 0
            out = out if system is None else branch_outputs(ch, out, system)
            for name, c in read:
                stacks[name], start = out[start:start + len(c)], start + len(c)
    solved = _solve(stacks)
    w_x = np.where(p_x > PROB_FLOOR, p_x, 0.0)
    ev = dict.fromkeys(_ALL_FIELDS)
    for h, h_x, h_xy in _STACKS:  # sums step
        if h in reads:
            ev[h] = solved[h]
        if h_x in reads:
            ev[h_x] = _expect(w_x, keep(h_x, solved.get(h_x), renew, nx))
        if h_xy in reads:
            h_branch = keep(h_xy, solved.get(h_xy), changed, nx * ny)
            ev[h_xy] = _expect(probs.reshape(rows, -1), h_branch)
    return CqEvaluation(**ev), cache


def _bundle(ch: KrausChannel, probs: np.ndarray, states: np.ndarray) -> CqEvaluation:
    """Evaluate B ensembles of one alphabet shape at once.

    ``probs`` is (B, nx, ny) and ``states`` (B, nx*ny, d, d); every field
    of the result is a (B,) array, and each row equals the evaluation of
    that ensemble alone, bit for bit.
    """
    rows, nb, d = states.shape[:3]
    return _evaluate(ch, probs, states.reshape(rows * nb, d, d), _ALL_FIELDS)[0]


def evaluate_ensemble(ch: KrausChannel, ens: CqEnsemble) -> CqEvaluation:
    """Push every ensemble branch through the channel and collect states/entropies."""
    if ens.dim != ch.dim_in:
        raise ValueError(f"ensemble states have dim {ens.dim}, channel expects {ch.dim_in}")
    ev = _bundle(ch, ens.probs[None], ens.states.reshape(1, -1, ens.dim, ens.dim))
    return CqEvaluation(**{f.name: float(getattr(ev, f.name)[0]) for f in fields(ev)})


def region_quantities(ev: CqEvaluation) -> RegionQuantities:
    """rp = I(YX;B), ps = I(Y;B|X) - I(Y;E|X), rps = I(YX;B) - I(Y;E|X)."""
    i_y_e_x = ev.h_e_x - ev.h_e_xy
    rp = ev.h_b - ev.h_b_xy
    ps = (ev.h_b_x - ev.h_b_xy) - i_y_e_x
    return RegionQuantities(rp=rp, ps=ps, rps=rp - i_y_e_x)


def _linear_form(ev: CqEvaluation, coeffs: dict) -> float | np.ndarray:
    """sum c * ev.<field> over the non-zero coefficients c, in field order
    (a loop: ``sum`` compensates Python floats on 3.12+, not arrays)."""
    value = 0.0
    for name in _ALL_FIELDS:
        if coeffs.get(name, 0.0) != 0.0:
            value = value + coeffs[name] * getattr(ev, name)
    return value


def _p_coeffs(w: TradeoffWeights) -> dict:
    """rp + lam*ps + mu*rps as coefficients over the seven entropies."""
    lm = w.lam + w.mu
    return {"h_b": 1.0 + w.mu, "h_b_x": w.lam, "h_b_xy": -(1.0 + lm), "h_e_x": -lm, "h_e_xy": lm}


def objective_p(ev: CqEvaluation, w: TradeoffWeights) -> float | np.ndarray:
    """Weighted trade-off objective rp + lam*ps + mu*rps."""
    return _linear_form(ev, _p_coeffs(w))


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
    # axes (xa, xb, ya, yb, i, k, j, l): one complex product per entry, as in np.kron
    states = (a.states[:, None, :, None, :, None, :, None]
              * b.states[None, :, None, :, None, :, None, :])
    d = a.dim * b.dim
    return CqEnsemble(probs, states.reshape(a.nx * b.nx, a.ny * b.ny, d, d))


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
    """The search objective of one restart: the linear form ``coeffs`` of
    the evaluation of each (k, size) stack of candidates, as
    ``_linear_form(_bundle(ch, *space.decode(theta)), coeffs)`` would give
    it.  Only the fields with a non-zero coefficient are evaluated.

    It keeps the probabilities, branch inputs and branch and conditional
    entropies of its last call.  Each candidate is diffed against the
    nearest of those rows, branch slice by branch slice; only the
    branches whose slice changed are decoded and sent through the
    channel, in one batched call, and the others are copied.  Likewise
    only the conditional states of the x whose branches or p(x, .)
    changed are sent and solved.  A coordinate probe changes every
    p(x, .) and no branch (a probability) or one branch and its
    conditional state (a state), and an unchanged slice decodes to the
    bitwise same branch, so every value is exact.
    """

    def __init__(self, ch: KrausChannel, space: _ParamSpace, coeffs: dict):
        self.ch, self.space, self.coeffs = ch, space, coeffs
        self.reads = {name for name, c in coeffs.items() if c != 0.0}  # the fields evaluated
        self.slices = None  # (spp, m, nb) bit patterns of the last call's rows
        self.kept = None  # their probabilities, inputs and entropies, by row

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return _linear_form(self.evaluate(theta), self.coeffs)

    def evaluate(self, theta: np.ndarray) -> CqEvaluation:
        """The fields read, the others None, of each row of ``theta``."""
        space = self.space
        rows = len(theta)
        cur = np.ascontiguousarray(theta[:, space.nb:]).reshape(rows, space.nb, space.spp)
        # (spp, rows, nb): the diff's reduction runs over the outer axis, in whole-array passes
        bits = np.ascontiguousarray(cur.view(np.int64).transpose(2, 0, 1))
        kept = changed = None
        if self.slices is None:
            inputs = space.decode_states(cur.reshape(-1, space.spp))
        else:
            diff = (bits[:, :, None] != self.slices[:, None]).any(axis=0)
            base = diff.sum(axis=-1).argmin(axis=1)
            changed = diff[np.arange(rows), base]
            kept = {key: old[base] for key, old in self.kept.items()}
            inputs = space.decode_states(cur[changed]) if changed.any() else None
        ev, self.kept = _evaluate(self.ch, space.decode_probs(theta), inputs, self.reads,
                                  kept, changed)
        self.slices = bits
        return ev


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
    space = _ParamSpace(nx, ny, d, space_mixed)
    raw = 2.0 * rng.uniforms(nb * space.spp) - 1.0
    theta = np.concatenate([np.sqrt(probs.reshape(-1)), raw])
    probs, states = space.decode(theta[None])
    return probs[0], states[0]


def _run_search(ch: KrausChannel, coeffs: dict, cfg: SearchConfig | None, *, mixed: bool = True,
                ny_forced: int | None = None, extra_starts=()):
    """Random-restart coordinate search maximizing the linear form ``coeffs``, seeded.

    Each restart's objective (a ``_ProbeObjective``) evaluates the fields
    with a non-zero coefficient of a stack of candidate parameter
    vectors in one batched call, recomputing only the branches and
    conditional states the probes changed; ``coordinate_ascent`` fills
    the stack with the probes it is about to make, which leaves the
    result as if the probes were made one at a time.

    Returns (best value, best probs, best states, diagnostics dict).
    """
    cfg = cfg or SearchConfig()
    d = ch.dim_in
    nx_max = cfg.nx or d * d
    ny_max = ny_forced or cfg.ny or d * d
    budget = 2 * cfg.iters
    seeds = derive_seeds(cfg.seed, cfg.restarts)
    canonical = _canonical_starts(d, nx_max, ny_max, mixed)

    best_val = -math.inf
    best_probs = None
    best_states = None
    diag = {"budget_exhausted": False}

    def refine(probs0, states0):
        nx, ny = probs0.shape
        space = _ParamSpace(nx, ny, d, mixed)
        flat0 = np.asarray(states0, dtype=complex).reshape(nx * ny, d, d)
        f = _ProbeObjective(ch, space, coeffs)
        theta0 = space.encode(np.asarray(probs0, dtype=float), flat0)
        v0 = f(theta0[None])[0]
        budget_a = max(2 * space.nb, int(0.4 * budget))
        budget_a = min(budget_a, budget - 2)
        v1, th1, used = coordinate_ascent(
            f, theta0, v0, coords=range(space.nb), step=0.35, budget=budget_a
        )
        remaining = budget - used
        v2, th2, used2 = coordinate_ascent(f, th1, v1, step=0.3, budget=remaining // 2)
        v3, th3, used3 = coordinate_ascent(f, th2, v2, step=0.3, budget=remaining - used2)
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
    if best_probs is None:  # every value NaN, e.g. from weights whose sum overflows
        raise ValueError("no restart gave a finite objective value; "
                         f"objective coefficients {coeffs}")
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
    extra = [(e.probs, e.states) for e in starts]
    val, probs, states, diag = _run_search(ch, _p_coeffs(w), cfg, extra_starts=extra)
    if diagnostics is not None:
        diagnostics.update(diag)
    nx, ny = probs.shape
    ens = CqEnsemble(probs, states.reshape(nx, ny, ch.dim_in, ch.dim_in))
    return val, ens


def holevo_capacity(ch: KrausChannel, cfg: SearchConfig | None = None) -> float:
    """max I(X;B) over finite ensembles of pure input states."""
    return _run_search(ch, {"h_b": 1.0, "h_b_x": -1.0}, cfg, mixed=False, ny_forced=1)[0]


def private_information(ch: KrausChannel, cfg: SearchConfig | None = None) -> float:
    """max I(X;B) - I(X;E) over finite ensembles of mixed input states."""
    coeffs = {"h_b": 1.0, "h_b_x": -1.0, "h_e": -1.0, "h_e_x": 1.0}
    return _run_search(ch, coeffs, cfg, ny_forced=1)[0]


def cq_tradeoff_f(ch: KrausChannel, mu: float, cfg: SearchConfig | None = None) -> float:
    """Classical-quantum trade-off value f_mu = max I(X;B) + (1+mu)[H(B|X) - H(E|X)].

    Only the reduced input state of each branch matters, so the search
    runs directly over mixed conditional inputs.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    coeffs = {"h_b": 1.0, "h_b_x": mu, "h_e_x": -(1.0 + mu)}
    return _run_search(ch, coeffs, cfg, ny_forced=1)[0]


def public_private_tradeoff(ch: KrausChannel, mu: float,
                            cfg: SearchConfig | None = None) -> float:
    """Public-private trade-off value P_mu = max I(X;B) + (1+mu)[I(Y;B|X) - I(Y;E|X)]."""
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    coeffs = {"h_b": 1.0, "h_b_x": mu, "h_b_xy": -(1.0 + mu), "h_e_x": -(1.0 + mu),
              "h_e_xy": 1.0 + mu}
    return _run_search(ch, coeffs, cfg)[0]


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
    coeffs = {"h_b": 1.0 + w.mu, "h_b_x": w.lam, "h_e_x": -(1.0 + w.lam + w.mu), "h_in_x": 1.0}
    return _run_search(ch, coeffs, cfg, ny_forced=1)[0]


def antidegradable_value(ch: KrausChannel, w: TradeoffWeights, holevo: float) -> float:
    """Simplified trade-off value (1+mu) * max I(X;B) for antidegradable channels.

    Warns when the channel label does not mark it antidegradable.
    """
    if not math.isfinite(holevo):
        raise ValueError(f"Holevo value must be finite, got {holevo}")
    warn_if_not_antidegradable(ch)
    return (1.0 + w.mu) * holevo
