"""Two-point-measurement work statistics.

A quench is described by an initial Hamiltonian, a final Hamiltonian, a
work protocol (unitary, identity for a sudden quench), and an initial
state. Projective energy measurements before and after the protocol give
the joint table p_n * p_{m|n} over level pairs, whose energy differences
(Bohr frequencies) form the support of the work distribution. Pairs whose
Bohr frequencies coincide are collected into a single work value.

A state without coherence in the initial energy basis (eigenstates, Gibbs
states) is carried as its populations p_n alone, since its statistics
depend only on p_n and |<m_f|U|n_i>|^2; any other state is a
``DensityMatrix``. This module is the only place that tells them apart.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .spectral import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryMatrix,
    diagonalize,
)

STOCHASTICITY_TOL = 1e-10
NORMALIZATION_TOL = 1e-12

# Default clustering width as a fraction of the combined spectral span. Exact
# degeneracies come out of the eigensolver split by 1e-16 to 1e-14 of the span,
# but below the ring's transition physical splittings fill every decade from
# 1e-14 to 1e-8 too (nearest above the width: 1.1-1.3e-12), so results there depend on it.
DEFAULT_CLUSTER_SCALE = 1e-12
# Collected values carrying less than this total probability are dropped
# from the support; their count and mass go to the diagnostics.
DROP_THRESHOLD = 1e-15
PROXIMITY_WARNING_FACTOR = 10.0
# Pairs per block in which a state's joint table is read, and the cluster ids built.
BLOCK_PAIRS = 1 << 16
CLUSTER_ID = np.int32  # the dtype of a table's stored pair ids, which bounds its pairs
MAX_PAIRS = int(np.iinfo(CLUSTER_ID).max)

# The power sums <W^k> that work_moments computes, k = 1..MOMENT_ORDERS.
MOMENT_ORDERS = 4

# Relative tolerance for distribution-mean vs trace-formula agreement;
# scaled by the mean absolute work so it stays meaningful at <W> = 0.
RELATIVE_MEAN_TOL = 1e-8


def _population_vector(values) -> np.ndarray:
    populations = np.array(values, dtype=float, copy=True)
    if populations.ndim != 1 or populations.size < 1:
        raise ValidationError(f"populations must be a nonempty vector, not {populations.shape}")
    smallest, total = float(populations.min()), float(populations.sum())
    if not smallest >= 0.0:  # a NaN fails here, and an infinite entry the sum below
        raise ValidationError(f"populations must be finite and nonnegative: {smallest!r}")
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ValidationError(f"populations sum to {total!r}, not 1")
    populations.setflags(write=False)
    return populations


@dataclass(frozen=True, eq=False)
class QuenchSetup:
    """Ingredients of one two-point-measurement experiment.

    ``rho`` is a ``DensityMatrix``, or the populations of a state diagonal
    in the initial eigenbasis, ordered like the levels of ``diagonalize(hi)``.
    ``u is None`` means a sudden quench (identity protocol).
    """

    hi: HermitianOperator
    hf: HermitianOperator
    rho: DensityMatrix | np.ndarray
    u: UnitaryMatrix | None = None

    def __post_init__(self):
        if not isinstance(self.rho, DensityMatrix):
            object.__setattr__(self, "rho", _population_vector(self.rho))
        state_dim = self.rho.dim if isinstance(self.rho, DensityMatrix) else self.rho.size
        dims = {self.hi.dim, self.hf.dim, state_dim}
        if self.u is not None:
            dims.add(self.u.dim)
        if len(dims) != 1:
            raise DimensionMismatchError(f"setup dimensions differ: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.hi.dim


class PairTable:
    """The state-independent half of the quench from ``hi`` to ``hf`` under ``u``, built from
    both decompositions: transitions and both spectra.

    ``pmn[m, n]`` are the transition probabilities; ``bohr`` builds the Bohr
    frequencies E_m(final) - E_n(initial) from the ascending ``final_energies``
    and ``initial_energies``. One table serves every initial state of its
    quench, and what derives from the table alone (clusters, per-level
    coherences, first-moment products) is computed once through ``memo``;
    racing threads compute equal values. ``mean_work`` reads the ``initial``
    decomposition and either ``hi``, ``hf`` and ``u``, or the
    ``diagonal_change`` diag(hf) - diag(hi) of a sudden quench that changes
    only the diagonal, which its caller passes with no hi or hf. A table
    holds the arrays it builds, uncopied.
    """

    def __init__(
        self,
        hi: HermitianOperator | None,
        hf: HermitianOperator | None,
        initial: SpectralDecomposition,
        final: SpectralDecomposition,
        u: UnitaryMatrix | None = None,
        diagonal_change: np.ndarray | None = None,
    ):
        # ``transition_probabilities`` has checked that the table is doubly stochastic,
        # and its entries are squared moduli, so they lie in [0, 1].
        self._own(transition_probabilities(initial, final, u), final.eigenvalues,
                  initial.eigenvalues)
        self.hi, self.hf, self.u, self.initial = hi, hf, u, initial
        self.diagonal_change = diagonal_change

    def _own(self, pmn: np.ndarray, ef: np.ndarray, ei: np.ndarray) -> None:
        if pmn.size > MAX_PAIRS:
            raise ValidationError(f"{pmn.shape[0]} levels have more than {MAX_PAIRS} pairs")
        # The Bohr frequencies' max - min, exactly: rounding is monotone in each level. In
        # Python floats, so that an overflow gives inf without a warning.
        top = float(ef[-1]) - float(ei[0])
        span = top - (float(ef[0]) - float(ei[-1]))
        if not math.isfinite(span):
            raise ValidationError(f"spectra must give finite Bohr frequencies; they span {span!r}")
        for arr in (pmn, ef, ei):
            arr.setflags(write=False)
        self.pmn, self.final_energies, self.initial_energies = pmn, ef, ei
        if span <= 0:
            span = max(1.0, abs(top))
        self.default_cluster_tol = DEFAULT_CLUSTER_SCALE * span
        self._memo: dict = {}

    def bohr(self, columns: slice = slice(None), rows: slice = slice(None)) -> np.ndarray:
        """A new [m, n] array of the Bohr frequencies E_m(final) - E_n(initial) over
        ``rows`` and ``columns``."""
        return np.subtract.outer(self.final_energies[rows], self.initial_energies[columns])

    def memo(self, key, compute):
        """``compute()`` on the first request for ``key``, the stored value after."""
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, compute())

    @property
    def dim(self) -> int:
        return self.pmn.shape[0]

    def mean_work(self, pn: np.ndarray) -> float:
        """<W> = sum_n p_n <n_i|U^dag Hf U - Hi|n_i> for the initial populations ``pn``.

        Evaluated from the matrix entries, not from the Bohr frequencies, so
        that it checks the collection independently; the products are
        computed once per set of levels with p_n > 0.
        """
        live = np.flatnonzero(pn > 0.0)
        key = ("level_work", live.tobytes())
        diagonal = self.memo(key, lambda: _level_work(self, live))
        return float(diagonal @ pn[live])


@dataclass(frozen=True, eq=False)
class UncollectedDistribution:
    """Joint table over level pairs before degeneracy collection.

    ``pn`` are initial-basis populations, checked here, and ``columns`` spans
    their first to last p_n > 0. ``table`` holds the transitions and Bohr
    frequencies, which every state of the same quench shares.
    """

    pn: np.ndarray
    table: PairTable

    def __post_init__(self):
        pn = _population_vector(self.pn)
        if pn.size != self.table.dim:
            raise DimensionMismatchError(
                f"{pn.size} populations do not match {self.table.dim} levels"
            )
        live = np.flatnonzero(pn)
        object.__setattr__(self, "pn", pn)
        object.__setattr__(self, "columns", slice(live[0], live[-1] + 1))

    @property
    def dim(self) -> int:
        return self.pn.size

    def joint(self) -> np.ndarray:
        """A new array of p_n * p_{m|n} over the live ``columns``, clipped at zero: the
        ``blocks`` in order. The columns left out carry p_n = 0, so they hold no probability.
        """
        return np.concatenate([q for _, q in self.blocks()])

    def blocks(self):
        """Yield ``(rows, q)``: the rows of the joint, clipped at zero, a block of about
        ``BLOCK_PAIRS`` pairs at a time, so that no N^2 product exists."""
        pn, pmn, columns = self.pn[self.columns], self.table.pmn, self.columns
        step = max(1, BLOCK_PAIRS // pn.size)
        for start in range(0, self.dim, step):
            rows = slice(start, start + step)
            q = pn * pmn[rows, columns]
            yield rows, np.maximum(q, 0.0, out=q)


@dataclass(frozen=True)
class CollectionDiagnostics:
    """Auditable record of one degeneracy-collection pass."""

    cluster_tol: float
    min_gap: float
    warnings: tuple[str, ...]
    dropped_pairs: int
    dropped_mass: float


@dataclass(frozen=True, eq=False)
class WorkDistribution:
    """Degeneracy-collected discrete work distribution.

    ``multiplicity`` counts, as ``CLUSTER_ID`` whichever constructor built it, every level
    pair collected into each work value, including zero-probability pairs that share it; the
    pairs of dropped (probability < 1e-15) values are accounted for in the diagnostics, so
    the total, summed in int64, is always the full pair count.
    """

    support: np.ndarray
    probs: np.ndarray
    multiplicity: np.ndarray
    diagnostics: CollectionDiagnostics

    def __post_init__(self):
        self._own(
            np.array(self.support, dtype=float),
            np.array(self.probs, dtype=float),
            np.array(self.multiplicity, dtype=CLUSTER_ID),
            self.diagnostics,
        )

    def _own(self, support, probs, multiplicity, diagnostics) -> WorkDistribution:
        """Check and keep the arrays themselves, read-only; the caller gives them up."""
        object.__setattr__(self, "diagnostics", diagnostics)
        if not (support.shape == probs.shape == multiplicity.shape) or support.ndim != 1:
            raise DimensionMismatchError("support, probs, multiplicity must be equal-length vectors")
        min_gap = _min_gap(support)
        if not (np.isfinite(support).all() and min_gap > 0):  # a NaN fails
            raise ValidationError("support must be finite and strictly increasing")
        if min_gap < diagnostics.cluster_tol:
            raise ValidationError(
                f"support gap {min_gap:g} below clustering width {diagnostics.cluster_tol:g}"
            )
        if not (abs(float(probs.sum()) - 1.0) <= NORMALIZATION_TOL and probs.min() >= 0.0):
            raise ValidationError(f"probs must be >= 0 and sum to 1, not {float(probs.sum())!r}")
        if multiplicity.min() < 1:
            raise ValidationError("multiplicities must be >= 1")
        total_pairs = int(multiplicity.sum(dtype=np.int64)) + diagnostics.dropped_pairs
        if math.isqrt(total_pairs) ** 2 != total_pairs:
            raise ValidationError(
                f"kept plus dropped pair count {total_pairs} is not a level count squared"
            )
        for name, arr in (("support", support), ("probs", probs), ("multiplicity", multiplicity)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        return self

    @property
    def num_points(self) -> int:
        return self.support.size

    def to_json_record(self) -> dict:
        return {
            "support": self.support.tolist(),
            "probs": self.probs.tolist(),
            "multiplicity": self.multiplicity.tolist(),
            "diagnostics": asdict(self.diagnostics),
        }


def transition_probabilities(
    initial: SpectralDecomposition,
    final: SpectralDecomposition,
    u: UnitaryMatrix | None = None,
) -> np.ndarray:
    """|<m_f| U |n_i>|^2 as an [m, n] matrix, doubly stochastic for unitary U."""
    if initial.dim != final.dim or (u is not None and u.dim != initial.dim):
        raise DimensionMismatchError("initial, final, and protocol dimensions must agree")
    vi = initial.eigenvectors
    vf = final.eigenvectors
    overlap = vf.conj().T @ (u.entries @ vi if u is not None else vi)
    pmn = np.abs(overlap) if overlap.dtype.kind == "c" else overlap
    pmn *= pmn  # in place; a real x * x is |x| * |x| bit for bit, so it skips the abs
    worst = max(np.abs(pmn.sum(axis=0) - 1.0).max(), np.abs(pmn.sum(axis=1) - 1.0).max())
    if not worst <= STOCHASTICITY_TOL:
        raise ValidationError(f"transition matrix deviates from doubly stochastic by {worst:g}")
    return pmn


def initial_populations(
    rho: DensityMatrix | np.ndarray, initial: SpectralDecomposition
) -> np.ndarray:
    """<n_i| rho |n_i>, clipped at zero.

    A population vector, as validated by ``QuenchSetup``, is its own
    answer; a density matrix is projected onto the initial eigenvectors.
    ``UncollectedDistribution`` checks that the projection sums to one.
    """
    dim = rho.dim if isinstance(rho, DensityMatrix) else len(rho)
    if dim != initial.dim:
        raise DimensionMismatchError(
            f"state dimension {dim} does not match basis dimension {initial.dim}"
        )
    if not isinstance(rho, DensityMatrix):
        return rho
    v = initial.eigenvectors
    return np.maximum((v.conj() * (rho.entries @ v)).sum(axis=0).real, 0.0)


def uncollected_distribution(setup: QuenchSetup) -> UncollectedDistribution:
    """Assemble populations, transitions, and Bohr frequencies for a setup.

    A caller with several states of one quench shares a ``PairTable``
    instead, and pairs it with each state's populations.
    """
    initial = diagonalize(setup.hi)
    table = PairTable(setup.hi, setup.hf, initial, diagonalize(setup.hf), setup.u)
    return UncollectedDistribution(initial_populations(setup.rho, initial), table)


def _cluster_ids(table: PairTable, cluster_tol: float, columns: slice) -> tuple[np.ndarray, ...]:
    """([m, n] cluster of each pair in ``columns``; pairs per cluster).

    A state over more than half of the columns builds the whole table's int32 ids through
    one argsort, gathering and scattering a block at a time, and stores them; a later state
    reads them. A narrow state on a table without them finds its pairs' sorted positions
    among the cluster starts, and stores nothing. Equal values share a cluster, so both
    routes agree. No Bohr or sorted values outlive the call.
    """
    key, shape = ("cluster_ids", cluster_tol), table.pmn.shape
    stored = table._memo.get(key)
    if stored is not None:
        return stored[0][:, columns], stored[1]
    wide = 2 * (columns.stop - columns.start) > shape[1]
    v = table.bohr().ravel()
    if wide:
        order = np.argsort(v)
    else:
        v.sort()
        at = np.searchsorted(v, table.bohr(columns))
    new = np.ones(v.size, dtype=bool)  # True where a cluster starts
    for start in range(0, v.size, BLOCK_PAIRS):  # by blocks: no N^2 gaps or sorted copy
        block = slice(start, start + BLOCK_PAIRS + 1)
        w = v[order[block]] if wide else v[block]  # a narrow block is a view of v
        np.greater_equal(w[1:] - w[:-1], cluster_tol, out=new[start + 1 : block.stop])
    del v, w  # N^2: freed before the starts allocate
    starts = np.flatnonzero(new)
    counts = np.empty_like(starts, dtype=CLUSTER_ID)  # written in place, with no copy of starts
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = new.size - starts[-1]
    if not wide:
        return np.searchsorted(starts, at, "right") - 1, counts
    del starts  # up to N^2 of them: freed before the scatter allocates
    new[0] = False  # so that the ids count from 0
    ids, last = np.empty(new.size, dtype=CLUSTER_ID), 0
    for start in range(0, new.size, BLOCK_PAIRS):  # by blocks, with a carry: no N^2 cumsum
        running = np.cumsum(new[start : start + BLOCK_PAIRS], dtype=CLUSTER_ID)
        if last:
            running += last
        ids[order[start : start + BLOCK_PAIRS]], last = running, running[-1]
    del order, new
    stored = table._memo.setdefault(key, (ids.reshape(shape), counts))
    return stored[0][:, columns], stored[1]


def _min_gap(support: np.ndarray) -> float:
    """The smallest gap between neighbours in ``support``, a block at a time; inf below two."""
    blocks = (support[i : i + BLOCK_PAIRS + 1] for i in range(0, support.size - 1, BLOCK_PAIRS))
    return min((float((b[1:] - b[:-1]).min()) for b in blocks), default=math.inf)


def _pack(values: np.ndarray, mask: np.ndarray) -> int:
    """Move ``values[mask]`` to the front of ``values``, a block at a time; return their count."""
    end = 0
    for start in range(0, values.size, BLOCK_PAIRS):
        block = values[start : start + BLOCK_PAIRS][mask[start : start + BLOCK_PAIRS]]
        values[end : end + block.size] = block  # never past this block, which is read
        end += block.size
        del block  # before the next one is gathered
    return end


def collect_work_distribution(
    uncollected: UncollectedDistribution, cluster_tol: float | None = None
) -> WorkDistribution:
    """Collect equal Bohr frequencies into a discrete work distribution.

    Values are sorted and merged by single linkage whenever the gap to the
    previous value is below ``cluster_tol``; each collected value is the
    probability-weighted mean of its members. The sort and the clusters
    depend on the Bohr frequencies alone, so the table computes them once
    per width for all of its states; a state sums over its live columns,
    one block of rows at a time, so no product of the table is built whole.
    """
    table, columns = uncollected.table, uncollected.columns
    cluster_tol = float(table.default_cluster_tol if cluster_tol is None else cluster_tol)
    if not 0 < cluster_tol < math.inf:
        raise ValidationError(f"cluster_tol must be positive and finite, got {cluster_tol!r}")
    ids, members = _cluster_ids(table, cluster_tol, columns)
    # sum q[m, n] and (E_m - E_n) q[m, n] per cluster, the support once divided, adding the
    # pairs one at a time in row-major order: the bits of one bincount over the whole table
    cluster_prob, support = np.zeros(members.size), np.zeros(members.size)
    for rows, q in uncollected.blocks():
        block_ids = ids[rows].ravel()
        np.add.at(cluster_prob, block_ids, q.ravel())  # 1-D: the fast path
        q *= table.bohr(columns, rows)
        np.add.at(support, block_ids, q.ravel())
    del ids, block_ids  # a narrow state's ids, and a view: freed before the rest allocates

    keep = cluster_prob >= DROP_THRESHOLD
    kept = int(np.count_nonzero(keep))
    if not kept:
        raise ValidationError("all collected work values fell below the probability floor")
    # Of the kept and the dropped clusters, the larger side moves forward in its own array and
    # the smaller is gathered; a state that drops nothing keeps the sums and counts as they are.
    kept_probs, multiplicity, dropped_mass = cluster_prob, members, 0.0
    if kept < keep.size:
        multiplicity, total = members[keep], float(cluster_prob.sum())
        if 2 * kept >= keep.size:  # a thermal state drops a few values
            dropped_mass = float(cluster_prob[~keep].sum())
            for sums in (cluster_prob, support):  # cut in place: they become the distribution's
                sums.resize(_pack(sums, keep), refcheck=False)  # no view of them is left
        else:  # a ground state keeps a few, and sums its dropped ones where they moved, uncut
            kept_probs, support = cluster_prob[keep], support[keep]
            dropped = _pack(cluster_prob, np.invert(keep, out=keep))
            dropped_mass = float(cluster_prob[:dropped].sum())
    support /= kept_probs  # the probability-weighted mean keeps the first moment exact
    dropped_pairs = table.pmn.size - int(multiplicity.sum(dtype=np.int64))
    if dropped_mass != 0.0:
        # With ~N^2 clusters the sub-threshold mass can exceed the normalization tolerance
        # (up to N^2 times the floor), so the kept probabilities absorb it proportionally:
        # below 1e-8 relative in every reachable case, and auditable through dropped_mass.
        kept_probs *= total / float(kept_probs.sum())
    del cluster_prob, keep  # freed here: a mask freed later cost 3 MB of thermal peak RSS

    min_gap = _min_gap(support)
    warnings = []
    if min_gap < PROXIMITY_WARNING_FACTOR * cluster_tol:
        warnings.append(
            f"resolution-marginal spectrum: smallest collected gap {min_gap:g} is "
            f"within {PROXIMITY_WARNING_FACTOR:g}x the clustering width {cluster_tol:g}"
        )
    diagnostics = CollectionDiagnostics(
        cluster_tol=cluster_tol,
        min_gap=min_gap,
        warnings=tuple(warnings),
        dropped_pairs=dropped_pairs,
        dropped_mass=dropped_mass,
    )
    # built here, so kept without a copy
    return object.__new__(WorkDistribution)._own(support, kept_probs, multiplicity, diagnostics)


def max_degeneracy(work: WorkDistribution) -> int:
    """Largest number of level pairs collected into a single work value."""
    return int(work.multiplicity.max())


def work_moments(work: WorkDistribution) -> tuple[np.ndarray, float]:
    """Exact weighted power sums <W^k> of the collected distribution for k = 1..MOMENT_ORDERS,
    and its variance. A support whose highest power overflows is refused."""
    with np.errstate(over="ignore"):  # an overflow reaches the highest power first
        powers = work.support[np.newaxis, :] ** np.arange(1, MOMENT_ORDERS + 1)[:, np.newaxis]
    if not np.isfinite(powers[-1]).all():
        largest = float(np.abs(work.support).max())
        raise ValidationError(f"work values up to |W| = {largest!r} overflow power {MOMENT_ORDERS}")
    moments = powers @ work.probs
    second = float((work.support**2 * work.probs).sum())
    return moments, second - float(moments[0]) ** 2


def _level_work(table: PairTable, live: np.ndarray) -> np.ndarray:
    """<n_i|U^dag Hf U - Hi|n_i> for the ``live`` levels n of ``table``.

    A sudden quench that changes only the diagonal scales the rows of the
    eigenvectors; the N^3 product with the difference adds only exact
    zeros to those terms. Both sum a C-order array (numpy lays some
    products with the Fortran-order eigenvectors out in Fortran order,
    which sums in another order), so the two routes give the same bits.
    """
    v = table.initial.eigenvectors
    v = v[:, live[0] : live[-1] + 1] if live[-1] - live[0] + 1 == live.size else v[:, live]
    if table.diagonal_change is not None:
        product = np.multiply(table.diagonal_change[:, np.newaxis], v, order="C")
    else:
        hf = table.hf.entries
        if table.u is not None:
            u = table.u.entries
            hf = u.conj().T @ hf @ u
        product = (hf - table.hi.entries) @ v
    np.multiply(v.conj(), product, out=product)
    return product.sum(axis=0).real


def check_first_moment(work: WorkDistribution, uncollected: UncollectedDistribution) -> float:
    """Raise unless the distribution mean matches the measured trace formula.

    The trace mean is ``uncollected.table.mean_work`` of the populations.
    The comparison is relative to max(|trace mean|, sum |W| P(W)) so it
    stays meaningful when the mean is exactly zero. Returns the trace
    mean, so a caller that reports it need not evaluate it twice.
    """
    from_dist = float(work.support @ work.probs)
    from_trace = uncollected.table.mean_work(uncollected.pn)
    k = int(np.searchsorted(work.support, 0.0))  # sorted: sum |W| P = <W> - 2 sum_{W<0} W P
    scale = max(abs(from_trace), from_dist - 2.0 * float(work.support[:k] @ work.probs[:k]), 1e-300)
    if not abs(from_dist - from_trace) <= RELATIVE_MEAN_TOL * scale:
        raise ValidationError(
            f"distribution mean {from_dist!r} and trace formula {from_trace!r} "
            f"disagree beyond {RELATIVE_MEAN_TOL:g} relative"
        )
    return from_trace
