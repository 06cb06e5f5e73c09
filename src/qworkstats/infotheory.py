"""Entropies, relative entropy of coherence, and the bound chain.

The entropy of the collected work distribution H_W is bracketed by the
entropy H_u of the uncollected level-pair table,

    H_u - ln(gamma_max) <= H_W <= H_u,

where gamma_max is the largest number of pairs collected into one work
value. H_u itself splits exactly into a diagonal-ensemble part plus an
average coherence,

    H_u = S(rho_bar) + sum_n p_n C(|n_i><n_i|),

with C the relative entropy of coherence in the protocol-rotated final
basis, and is bounded above by 2 S(rho_bar) + C(rho_bar) (concavity) and,
for the work entropy, by S(rho_bar) + max_n C(|n_i><n_i|), whose coherence
term is temperature independent.

Every inequality here is mathematically unconditional, so a violation
beyond the numerical slack raises a hard error rather than being reported
as a physics result. All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tpm
from .errors import BoundViolationError, DimensionMismatchError
from .tpm import PairTable, QuenchSetup, UncollectedDistribution, WorkDistribution, max_degeneracy

BOUND_SLACK = 1e-10
GROUND_PROJECTOR_TOL = 1e-12


def _entropy(p: np.ndarray) -> float:
    """-sum q ln q of q = p / sum(p) for a nonnegative ``p``, with 0 ln 0 = 0."""
    q = p[p > 0.0]  # the one array as long as p; its mask is a byte per entry
    q /= p.sum()
    for start in range(0, q.size, tpm.BLOCK_PAIRS):
        block = q[start : start + tpm.BLOCK_PAIRS]
        block *= np.log(block)  # in place, so no log temporary is longer than a block
    return 0.0 - float(q.sum())  # once, in one order: +0.0, not -0.0, when no term is nonzero


def entropy_of_work(work: WorkDistribution) -> float:
    """Shannon entropy of the collected work distribution, which its type checks."""
    return _entropy(work.probs)


def uncollected_entropy(uncollected: UncollectedDistribution) -> float:
    """Shannon entropy of the joint table p_n * p_{m|n}, read a block of rows at a time.

    With Z = sum q and S = sum q ln q over the nonnegative joint q, it is
    ln Z - S / Z: its factors were checked, so it is only renormalized. The
    block sums are added exactly, so the block size moves only their own rounding.
    """
    totals, weighted = [], []
    for _, q in uncollected.blocks():
        totals.append(float(q.sum()))
        q *= np.log(q, out=np.zeros(q.shape), where=q > 0.0)
        weighted.append(float(q.sum()))
    total = math.fsum(totals)
    return max(0.0, math.log(total) - math.fsum(weighted) / total)  # +0.0, never -0.0


def _column_entropies(pmn: np.ndarray) -> np.ndarray:
    """-sum_m p ln p down each column, with 0 ln 0 = 0.

    Of a transition matrix, entry n is the relative entropy of coherence of
    |n_i><n_i| in the protocol-rotated final basis. An entry at or below
    zero gives a zero term (-0.0 for a tiny negative one), which leaves
    every column sum as clipping would.
    """
    terms = np.log(pmn, out=np.zeros(pmn.shape), where=pmn > 0.0)
    terms *= pmn
    return -terms.sum(axis=0)


def _table_coherences(table: PairTable) -> np.ndarray:
    """``table``'s per-level coherences: one read-only vector for the reports of its states."""
    per_level = table.memo("per_level_coherences", lambda: _column_entropies(table.pmn))
    per_level.setflags(write=False)  # no copy: one would outlive the table in the hole of its terms
    return per_level


def effective_dimension(pmn: np.ndarray) -> tuple[float, float]:
    """Participation of the ground level over final levels.

    Returns (I, -ln I) with I = sum_m p_{m|0}^2; the second entry is the
    collision (Renyi-2) entropy of the column, a lower bound on any Shannon
    entropy built on it.
    """
    inverse_participation = float((pmn[:, 0] ** 2).sum())
    return inverse_participation, -math.log(inverse_participation)


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """All entropy quantities and bound ingredients for one quench.

    Scalar fields (in declaration order) form the stable CSV row contract;
    the ``per_level_coherence`` vector is not part of that row.
    """

    h_w: float
    h_u: float
    ln_gamma_max: float
    s_diag: float
    avg_coherence: float
    rec_rho_bar: float
    c_max: float
    eff_dim: float
    neg_log_eff_dim: float
    initial_is_ground: bool
    per_level_coherence: np.ndarray

    def csv_row(self) -> list:
        return [getattr(self, name) for name in self.CSV_FIELDS]


BoundsReport.CSV_FIELDS = tuple(
    f.name for f in fields(BoundsReport) if f.name != "per_level_coherence"
)


def _require(name: str, lhs: float, rhs: float, slack: float = BOUND_SLACK) -> None:
    if not lhs <= rhs + slack:  # a NaN fails
        raise BoundViolationError(name, lhs, rhs, slack)


def check_bounds(report: BoundsReport) -> None:
    """Assert the full inequality chain on an assembled report."""
    _require("degeneracy_sandwich_upper", report.h_w, report.h_u)
    _require("degeneracy_sandwich_lower", report.h_u - report.ln_gamma_max, report.h_w)
    decomposition_gap = abs(report.h_u - (report.s_diag + report.avg_coherence))
    _require("entropy_decomposition", decomposition_gap, 0.0)
    _require("concavity_bound", report.h_u, 2.0 * report.s_diag + report.rec_rho_bar)
    _require("temperature_bound", report.h_w, report.s_diag + report.c_max)
    if report.initial_is_ground:
        _require("effective_dimension_bound", report.neg_log_eff_dim, report.h_u)


def bounds_report(
    quench: QuenchSetup | PairTable, work: WorkDistribution, uncollected: UncollectedDistribution
) -> BoundsReport:
    """Assemble every bound ingredient of ``uncollected`` and verify the chain.

    ``quench`` is the setup or pair table it was built from; only its
    dimension is read. The terms come from the populations and transition
    matrix (the scalar route, which the tests cross-check against dephasing),
    and those of the table alone once per table, whose columns it checked.
    """
    if quench.dim != uncollected.dim:
        raise DimensionMismatchError(
            f"setup dimension {quench.dim} does not match table dimension {uncollected.dim}"
        )
    pn = uncollected.pn
    table = uncollected.table
    pmn = table.pmn
    per_level = _table_coherences(table)
    eff_dim, neg_log_eff_dim = table.memo("effective_dimension", lambda: effective_dimension(pmn))

    s_diag = _entropy(pn)  # the populations were checked at construction
    avg_coherence = float(pn @ per_level)
    c_max = float(per_level.max())
    # C(rho_bar): the rotated populations are >= 0 and sum to 1 within the checks of their factors
    rec_rho_bar = _entropy(pmn @ pn) - s_diag
    _require("coherence_nonnegative", -rec_rho_bar, 0.0)  # C(rho_bar) >= 0
    rec_rho_bar = max(rec_rho_bar, 0.0)  # cancellation noise below 0 is written as 0

    report = BoundsReport(
        h_w=entropy_of_work(work),
        h_u=uncollected_entropy(uncollected),
        ln_gamma_max=math.log(max_degeneracy(work)),
        s_diag=s_diag,
        avg_coherence=avg_coherence,
        rec_rho_bar=rec_rho_bar,
        c_max=c_max,
        eff_dim=eff_dim,
        neg_log_eff_dim=neg_log_eff_dim,
        initial_is_ground=bool(pn[0] >= 1.0 - GROUND_PROJECTOR_TOL),
        per_level_coherence=per_level,
    )
    check_bounds(report)
    return report
