"""Envelopes and envelope gaps of bilinear functions over the unit cube.

For b(x) = sum a_ij x_i x_j on [0,1]^n this module computes

* the McCormick bounding functions mcu/mcl (termwise closed form),
* the concave/convex envelopes cav/vex of b (exact LP over the 2^n cube
  vertices, or cut-based closed forms at points with coordinates in
  {0, 1/2, 1}),
* the gaps mcgap = mcu - mcl and chgap = cav - vex plus their ratio,
* dual certificates proving the envelope values at half points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cuts import ENUMERATION_CAP, _form_scan, _mask_table, cut_range_bruteforce, subset_gamma
from .errors import CapacityError, CertificateError, InputError, InvariantViolationError
from .graph import (
    MAX_VERTICES,
    _SLACK,
    SignedWeightedGraph,
    VertexSubset,
    _check_subset,
    _int_arg,
    _real_arg,
    cut_weight,
    gamma_abs_weight,
    gamma_weight,
    ordered_sum,
)
from .simplex import solve_min

LP_SIZE_CAP = 16


@dataclass(frozen=True)
class EvaluationPoint:
    """Point of [0,1]^n with its coordinate partition into zeros, ones, fractionals.

    The validation pass also sets zero_support, one_support, fractional_support
    and is_half_point (every coordinate exactly 0, 1/2 or 1; no tolerance).
    """

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            coords = tuple(self.coords)  # read once: coords may be a one-shot iterator
        except TypeError:
            raise InputError(f"coordinates must be real numbers, got {self.coords!r}") from None
        if len(coords) > MAX_VERTICES:
            raise CapacityError(f"point has {len(coords)} coordinates, above {MAX_VERTICES}")
        values = []
        masks = [0, 0, 0]  # coordinates exactly 0, exactly 1 and in between
        half = True
        for idx, c in enumerate(coords, start=1):
            if type(c) is not float:
                c = _real_arg(c, f"coordinate {idx}")
            if not 0 <= c <= 1:
                raise InputError(f"coordinate {idx} = {c!r} is outside [0, 1]")
            values.append(c)
            masks[0 if c == 0 else 1 if c == 1 else 2] |= 1 << idx - 1
            half = half and c in (0.0, 0.5, 1.0)
        zero, one, frac = map(VertexSubset, masks)
        vars(self).update(  # what object.__setattr__ does for a frozen dataclass, in one call
            coords=tuple(values), zero_support=zero, one_support=one, fractional_support=frac,
            is_half_point=half,
        )

    @classmethod
    def of(cls, *coords: float) -> "EvaluationPoint":
        return cls(tuple(coords))

    @classmethod
    def from_iterable(cls, coords: Iterable[float]) -> "EvaluationPoint":
        return cls(tuple(coords))

    @classmethod
    def all_half(cls, n: int) -> "EvaluationPoint":
        return cls((0.5,) * _int_arg(n, "coordinate count", 0))

    @property
    def n(self) -> int:
        return len(self.coords)


def _check_point(g: SignedWeightedGraph, x: EvaluationPoint) -> None:
    if x.n != g.n:
        raise InputError(f"point has {x.n} coordinates but the graph has {g.n} vertices")


def evaluate_bilinear(g: SignedWeightedGraph, x: EvaluationPoint) -> float:
    """b(x) = sum over edges of a_ij x_i x_j."""
    _check_point(g, x)
    c = x.coords
    return ordered_sum(w * c[i - 1] * c[j - 1] for i, j, w in g.edges)


def mccormick_envelopes(g: SignedWeightedGraph, x: EvaluationPoint) -> tuple[float, float]:
    """(mcu, mcl): the McCormick upper/lower bounding functions at x.

    The relaxation optimum separates per edge: each product term ranges over
    [max(0, x_i + x_j - 1), min(x_i, x_j)] independently, so the extremes pick
    the favorable interval end per edge according to the weight sign.
    """
    _check_point(g, x)
    c = x.coords
    mcu = 0.0
    mcl = 0.0
    for i, j, w in g.edges:
        xi, xj = c[i - 1], c[j - 1]
        hi = xi if xi < xj else xj
        lo = xi + xj - 1.0
        if lo < 0.0:
            lo = 0.0
        if w > 0:
            mcu += w * hi
            mcl += w * lo
        else:
            mcu += w * lo
            mcl += w * hi
    return float(mcu), float(mcl)


def mcgap_halfpoint(g: SignedWeightedGraph, x: EvaluationPoint) -> float:
    """McCormick gap at a half point: half the absolute weight inside the fractional support."""
    _check_point(g, x)
    if not x.is_half_point:
        raise InputError(
            "mcgap_halfpoint needs coordinates in {0, 1/2, 1}; "
            "use mccormick_envelopes for general points"
        )
    return 0.5 * gamma_abs_weight(g, x.fractional_support)


def _staircase_start(a_mat: np.ndarray, b_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(basis, B^-1 [A | b]) at the staircase start of the vertex LP, in closed form.

    b_vec = (x, 1).  The basis is the vertex chain that switches coordinates
    on one at a time in decreasing order of x (ties to the lower index).  B^-1 is
    row differences: the convexity row, then the rows of [A | b] in that
    order, each minus the row after it.  So every coefficient is -1, 0 or 1
    and the basic values 1 - x_p1, x_p1 - x_p2, ..., x_pf are exact, >= 0.
    """
    f = len(b_vec) - 1
    order = np.argsort(-b_vec[:f], kind="stable")
    basis = np.append(0, np.cumsum(1 << order))
    rows = np.append(f, order)
    reduced = np.empty((f + 1, a_mat.shape[1] + 1))
    a_mat.take(rows, 0, out=reduced[:, :-1])
    b_vec.take(rows, out=reduced[:, -1])
    reduced[:-1] -= reduced[1:]
    return basis, reduced


def hull_envelopes_lp(g: SignedWeightedGraph, x: EvaluationPoint) -> tuple[float, float]:
    """(cav, vex): exact envelope values at x via LP over all 2^n cube vertices.

    Coordinates that are exactly 0 or 1 force every vertex of positive weight
    to agree there (their marginal constraints pin the combination), so the LP
    is solved over the remaining fractional subcube with the dense primal
    simplex of bilingap.simplex.  Its equality matrix [bits; 1] is
    _mask_table(f).T, a view of the cut kernel's cached 0/1 table.  Both sides
    start from one staircase tableau built in closed form (_staircase_start),
    and each side's value is certified primal feasible and optimal by weak
    duality (InvariantViolationError if the certificate fails).  With f = 1
    or 2 fractional coordinates the values are closed forms instead, which the
    simplex and its certificate never see.  Capped at f <= LP_SIZE_CAP
    fractional coordinates, which size the LP; n does not.
    """
    _check_point(g, x)
    frac = list(x.fractional_support)  # ascending
    f = len(frac)
    if f > LP_SIZE_CAP:
        raise CapacityError(f"hull LP needs f <= {LP_SIZE_CAP} fractional coordinates, got {f}")
    ones = x.one_support
    base = gamma_weight(g, ones)
    if f == 0:
        return base, base
    xs = np.array([x.coords[v - 1] for v in frac])
    w_frac = g.weight_matrix[frac]
    w_ff = w_frac[:, frac]
    to_one = w_frac[:, list(ones)].sum(axis=1)
    c = base + subset_gamma(w_ff + np.diag(2.0 * to_one))
    if f == 1:
        val = float((1.0 - xs[0]) * c[0] + xs[0] * c[1])
        return val, val
    if f == 2:
        # One-dimensional feasible segment; evaluate both endpoints.
        x1, x2 = float(xs[0]), float(xs[1])
        lam = np.array([(1 - x1) * (1 - x2), x1 * (1 - x2), (1 - x1) * x2, x1 * x2])
        slope = float(c[0] - c[1] - c[2] + c[3])
        t_lo = -min(lam[0], lam[3])
        t_hi = min(lam[1], lam[2])
        v0 = float(lam @ c)
        vals = (v0 + t_lo * slope, v0 + t_hi * slope)
        return float(max(vals)), float(min(vals))
    a_mat = _mask_table(f).T
    b_vec = np.append(xs, 1.0)
    basis, start = _staircase_start(a_mat, b_vec)
    vex, _ = solve_min(a_mat, b_vec, c, basis, start)
    neg_cav, _ = solve_min(a_mat, b_vec, -c, basis, start)
    return -neg_cav, vex


def envelopes_halfpoint(
    g: SignedWeightedGraph, x: EvaluationPoint, mu_plus: float, mu_minus: float
) -> tuple[float, float, float]:
    """(cav, vex, chgap) at a half point from the extreme cut values of the fractional support.

    mu_plus/mu_minus must be the exact maximum/minimum signed cut weight of
    the subgraph induced by the fractional support (see cut_range_bruteforce).
    """
    _check_point(g, x)
    if not x.is_half_point:
        raise InputError("envelopes_halfpoint needs coordinates in {0, 1/2, 1}")
    t_one = x.one_support
    t_frac = x.fractional_support
    base = (
        gamma_weight(g, t_one)
        + 0.5 * cut_weight(g, t_one.union(t_frac), t_one)
        + 0.5 * gamma_weight(g, t_frac)
    )
    vex = base - 0.5 * mu_plus
    cav = base - 0.5 * mu_minus
    return cav, vex, 0.5 * (mu_plus - mu_minus)


@dataclass(frozen=True)
class DualCertificate:
    """Feasible dual solution certifying an envelope value at a half point.

    For side "lower_envelope" the certificate satisfies y + sum_{i in X} z_i
    <= gamma(X) for every X inside the fractional support; for side
    "upper_envelope" the inequality is reversed.  Its objective y + half the
    sum of z equals the certified envelope value minus the binary-part offset.
    """

    side: str  # "lower_envelope" (vex) or "upper_envelope" (cav)
    y: float
    z: dict[int, float]

    @property
    def objective(self) -> float:
        return self.y + 0.5 * ordered_sum(self.z.values())


def dual_certificate(
    g: SignedWeightedGraph, t_frac: VertexSubset, mu: float, side: str
) -> DualCertificate:
    """Build and validate the dual certificate for one envelope side at a half point.

    mu must be the exact maximum (side "lower_envelope", certifying vex) or
    minimum (side "upper_envelope", certifying cav) signed cut weight of the
    subgraph induced by t_frac, so |t_frac| <= ENUMERATION_CAP.  The returned
    certificate is y = -mu/2 and z_i = half the weight from i into t_frac;
    feasibility is checked on every subset of t_frac, within _SLACK times the
    subgraph's total |weight|, by the cut kernel's block scan, and the first
    violating subset raises a CertificateError carrying it (mu was wrong).
    """
    if side not in ("lower_envelope", "upper_envelope"):
        raise InputError(f"side must be 'lower_envelope' or 'upper_envelope', got {side!r}")
    mu = _real_arg(mu, "mu")
    if not math.isfinite(mu):
        raise InputError(f"mu must be a finite real number, got {mu!r}")
    _check_subset(g, t_frac)
    verts = sorted(t_frac.members)
    k = len(verts)
    if k > ENUMERATION_CAP:
        raise CapacityError(f"certificate validation needs |support| <= {ENUMERATION_CAP}, got {k}")
    w = g.weight_matrix
    z = {v: 0.5 * float(ordered_sum(w[v, u] for u in verts if u != v)) for v in verts}
    y = -0.5 * mu
    w_sub = w[np.ix_(verts, verts)]
    tol = _SLACK * float(np.abs(w_sub).sum()) / 2  # |w_sub| counts each edge twice
    lower = side == "lower_envelope"
    # gamma(X) - sum_{v in X} z_v on all 2^k masks (bit p <-> verts[p]).  With z as built it
    # is -cut(X)/2, equal on a mask and its complement, but the check must hold for the
    # certificate's own z, and a wrong z need not be symmetric: so no half walk
    product, starts = _form_scan(w_sub - np.diag([2.0 * z[v] for v in verts]))
    for b, start in enumerate(starts):
        slack = product(b)
        slack += tol if lower else -tol  # in place: the doubles of slack +/- tol
        bad = np.flatnonzero(y > slack if lower else y < slack)
        if bad.size:
            m = start + int(bad[0])
            violating = VertexSubset.from_members(verts[p] for p in range(k) if m >> p & 1)
            raise CertificateError(
                f"dual certificate for side {side!r} infeasible on subset "
                f"{sorted(violating.members)}; mu={mu} is not the exact extreme cut value",
                violating_subset=violating,
            )
    return DualCertificate(side=side, y=y, z=z)


@dataclass(frozen=True)
class GapReport:
    """Envelope values, gaps, and gap ratio at one evaluation point."""

    point: EvaluationPoint
    mcu: float
    mcl: float
    cav: float
    vex: float
    mcgap: float
    chgap: float
    ratio: float  # math.inf when chgap = 0 < mcgap
    degenerate: bool  # True when both gaps are zero (ratio reported as 1)
    method: str  # "closed_form" at half points, "lp" otherwise

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point.coords),
            "mcu": self.mcu,
            "mcl": self.mcl,
            "cav": self.cav,
            "vex": self.vex,
            "mcgap": self.mcgap,
            "chgap": self.chgap,
            "ratio": None if math.isinf(self.ratio) else self.ratio,
            "ratio_infinite": math.isinf(self.ratio),
            "degenerate": self.degenerate,
            "method": self.method,
        }


def gap_ratio(mcgap: float, chgap: float, total: float) -> tuple[float, float, float, bool]:
    """(mcgap, chgap, ratio, degenerate): the one rule for the gap ratio mcgap/chgap.

    total is the graph's total_abs_weight, and gaps within _SLACK * total of 0
    count as zero.  A gap below that is a bug and raises
    InvariantViolationError; smaller negative rounding is clamped to 0.
    The ratio is reported as 1 with the degenerate flag when both gaps are
    zero, and as infinity when only chgap is.
    """
    zero = _SLACK * total
    if chgap < -zero or mcgap < -zero:
        raise InvariantViolationError(f"negative gap computed: mcgap={mcgap}, chgap={chgap}")
    mcgap = max(mcgap, 0.0)
    chgap = max(chgap, 0.0)
    if chgap > zero:
        return mcgap, chgap, mcgap / chgap, False
    if mcgap <= zero:
        return mcgap, chgap, 1.0, True
    return mcgap, chgap, math.inf, False


def gap_report(g: SignedWeightedGraph, x: EvaluationPoint) -> GapReport:
    """Full envelope/gap report at x.

    Half points use the cut-based closed forms (exact enumeration of the
    fractional support, capped at 26 vertices); other points solve the hull LP
    (capped at f <= 16 fractional coordinates).  Gaps and ratio follow gap_ratio.
    """
    _check_point(g, x)
    mcu, mcl = mccormick_envelopes(g, x)
    mcgap = mcu - mcl
    if x.is_half_point:
        mu_plus, mu_minus = cut_range_bruteforce(g, x.fractional_support)
        cav, vex, chgap = envelopes_halfpoint(g, x, mu_plus, mu_minus)
        method = "closed_form"
    else:
        cav, vex = hull_envelopes_lp(g, x)
        chgap = cav - vex
        method = "lp"
    mcgap, chgap, ratio, degenerate = gap_ratio(mcgap, chgap, g.total_abs_weight)
    return GapReport(
        point=x,
        mcu=mcu,
        mcl=mcl,
        cav=cav,
        vex=vex,
        mcgap=mcgap,
        chgap=chgap,
        ratio=ratio,
        degenerate=degenerate,
        method=method,
    )
