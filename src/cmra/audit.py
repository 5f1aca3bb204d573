"""Payment-consistency audits of published auction outcomes.

Regulators publish only per-bidder lot counts and total payments.  If
every winner paid linear (uniform per-lot) prices, those totals satisfy
an exact linear system over the unknown per-category prices; a solution
is evidence that headline demands won, while an infeasibility or an
implied-price conflict is evidence that pay-as-bid additional bids were
winning.  All arithmetic is exact: integer micro-currency amounts and
rational elimination, so a reconstruction is either exact or refuted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "AuditError",
    "AuctionAuditRecord",
    "AuditResult",
    "audit_linear_prices",
]

_SCALE = 10 ** 6  # micro-units of the currency


class AuditError(ValueError):
    """The audit record is internally inconsistent."""


@dataclass(frozen=True)
class LotCategory:
    id: str
    supply: int
    reserve: int  # whole currency units per lot


@dataclass(frozen=True)
class BidderOutcome:
    id: str
    payment: int              # whole currency units, all stages
    counts: dict              # category id -> lots won
    fixed_charge: int = 0     # non-competitive / coverage-obligation stage


@dataclass(frozen=True)
class AuctionAuditRecord:
    """Published supply, reserves, lot counts and payments of one auction."""

    name: str
    categories: tuple
    bidders: tuple
    currency: str = "DKK"
    source: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "AuctionAuditRecord":
        cats = tuple(LotCategory(c["id"], int(c["supply"]), int(c["reserve"]))
                     for c in data["categories"])
        bidders = tuple(BidderOutcome(
            b["id"], int(b["payment"]),
            {k: int(v) for k, v in b.get("counts", {}).items()},
            int(b.get("fixed_charge", 0))) for b in data["bidders"])
        return cls(data["name"], cats, bidders,
                   data.get("currency", "DKK"), data.get("source", ""))

    @classmethod
    def from_json(cls, path) -> "AuctionAuditRecord":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def validate(self) -> None:
        if not self.bidders:
            raise AuditError("record has no bidders")
        cat_ids = {c.id for c in self.categories}
        for b in self.bidders:
            unknown = set(b.counts) - cat_ids
            if unknown:
                raise AuditError(f"bidder {b.id} wins unknown categories {unknown}")
            floor = b.fixed_charge + sum(
                c.reserve * b.counts.get(c.id, 0) for c in self.categories)
            if b.payment < floor:
                raise AuditError(
                    f"bidder {b.id} paid {b.payment} below the reserve floor {floor}")
        for c in self.categories:
            won = sum(b.counts.get(c.id, 0) for b in self.bidders)
            if won > c.supply:
                raise AuditError(
                    f"category {c.id}: {won} lots won exceed supply {c.supply}")


@dataclass
class AuditResult:
    """Exact linear-price reconstruction of one audit record.

    ``status`` is 'feasible' (unique price vector, reserves respected),
    'infeasible' (no uniform prices can produce the payments; the
    certificate names the conflicting bidder combination) or
    'underdetermined' (a solution family remains; free categories and a
    representative at reserves are reported).
    """

    record: AuctionAuditRecord
    status: str
    prices: dict = field(default_factory=dict)        # category -> Fraction, currency
    free_categories: list = field(default_factory=list)
    representative: dict = field(default_factory=dict)
    representative_ok: bool | None = None
    certificate: dict | None = None
    difference_identities: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "record": self.record.name,
            "status": self.status,
            "prices": {k: _frac_str(v) for k, v in self.prices.items()},
            "free_categories": list(self.free_categories),
            "representative": {k: _frac_str(v)
                               for k, v in self.representative.items()},
            "representative_ok": self.representative_ok,
            "certificate": self.certificate,
            "difference_identities": self.difference_identities,
            "flags": self.flags,
        }


def _frac_str(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def audit_linear_prices(record: AuctionAuditRecord) -> AuditResult:
    """Solve for uniform per-lot prices reproducing every bidder's payment.

    The system (one exact equation per bidder, one unknown per won
    category) is eliminated over the rationals.  Besides the main
    verdict, the result carries all pairwise payment-difference
    identities and flags implied-price conflicts, the classic signature
    of winning additional bids.
    """
    record.validate()
    cats = [c.id for c in record.categories
            if any(b.counts.get(c.id, 0) > 0 for b in record.bidders)]
    reserves = {c.id: Fraction(c.reserve) * _SCALE for c in record.categories}

    # Rows in micro-currency: sum_c counts * p_c = payment - fixed.
    rows = []
    for b in record.bidders:
        coeffs = [Fraction(b.counts.get(c, 0)) for c in cats]
        rhs = Fraction((b.payment - b.fixed_charge)) * _SCALE
        rows.append((coeffs, rhs, {b.id: Fraction(1)}))

    result = AuditResult(record=record, status="feasible")
    result.difference_identities = _difference_identities(record, cats)
    result.flags = _implied_price_flags(record, cats)

    pivots, free, cert = _eliminate(rows, len(cats))
    if cert is not None:
        result.status = "infeasible"
        result.certificate = cert
        return result

    # Each pivot row reads x_j + sum over free f of c_f * x_f = rhs, so
    # pinning the free categories at their reserves fixes every x_j.
    x = {cats[f]: reserves[cats[f]] for f in free}
    for j, (coeffs, rhs) in pivots.items():
        x[cats[j]] = rhs - sum(coeffs[f] * x[cats[f]] for f in free)
    if free:
        result.status = "underdetermined"
        result.free_categories = [cats[j] for j in free]
        result.representative = {c: x[c] / _SCALE for c in cats}
        result.representative_ok = all(x[c] >= reserves[c] for c in cats)
        return result

    result.prices = prices = {c: x[c] / _SCALE for c in cats}
    below = [c for c in cats if prices[c] * _SCALE < reserves[c]]
    if below:
        result.status = "infeasible"
        result.certificate = {
            "kind": "below-reserve",
            "categories": below,
            "note": "unique linear prices fall below reserve prices",
        }
    return result


def _eliminate(rows, n_vars):
    """Exact Gauss-Jordan with provenance; returns (pivots, free, cert):
    ``pivots`` maps each pivot column to its reduced ``(coeffs, rhs)``
    row, and ``free`` lists the other columns."""
    work = [([c for c in coeffs], rhs, dict(prov)) for coeffs, rhs, prov in rows]
    pivots = {}
    for j in range(n_vars):
        pivot = None
        for i, (coeffs, _, _) in enumerate(work):
            if i not in pivots.values() and coeffs[j] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        pivots[j] = pivot
        pc, pr, pp = work[pivot]
        inv = 1 / pc[j]
        pc[:] = [c * inv for c in pc]
        work[pivot] = (pc, pr * inv, {k: v * inv for k, v in pp.items()})
        pc, pr, pp = work[pivot]
        for i, (coeffs, rhs, prov) in enumerate(work):
            if i == pivot or coeffs[j] == 0:
                continue
            f = coeffs[j]
            coeffs[:] = [c - f * p for c, p in zip(coeffs, pc)]
            new_prov = dict(prov)
            for k, v in pp.items():
                new_prov[k] = new_prov.get(k, Fraction(0)) - f * v
            work[i] = (coeffs, rhs - f * pr, new_prov)
    for coeffs, rhs, prov in work:
        if all(c == 0 for c in coeffs) and rhs != 0:
            bidders = sorted(k for k, v in prov.items() if v != 0)
            return None, None, {
                "kind": "conflicting-equations",
                "bidders": bidders,
                "residual": _frac_str(rhs / _SCALE),
                "note": "no uniform per-lot prices reproduce these payments",
            }
    free = [j for j in range(n_vars) if j not in pivots]
    return {j: work[i][:2] for j, i in pivots.items()}, free, None


def _difference_identities(record, cats):
    """Pairwise payment differences as exact linear identities."""
    out = []
    bidders = record.bidders
    for i in range(len(bidders)):
        for j in range(len(bidders)):
            if i == j:
                continue
            a, b = bidders[i], bidders[j]
            coeffs = {c: a.counts.get(c, 0) - b.counts.get(c, 0) for c in cats}
            coeffs = {c: v for c, v in coeffs.items() if v != 0}
            const = (a.payment - a.fixed_charge) - (b.payment - b.fixed_charge)
            if coeffs and all(v > 0 for v in coeffs.values()):
                out.append({"bidders": [a.id, b.id],
                            "coefficients": coeffs,
                            "difference": const})
    return out


def _implied_price_flags(record, cats):
    """Conflicting implied per-lot prices between single-category winners."""
    flags = []
    implied = {}
    for b in record.bidders:
        won = {c: n for c, n in b.counts.items() if n > 0}
        if len(won) == 1:
            (cat, count), = won.items()
            implied.setdefault(cat, []).append(
                (b.id, Fraction(b.payment - b.fixed_charge, count)))
    for cat, entries in implied.items():
        values = {v for _, v in entries}
        if len(values) > 1:
            flags.append({
                "kind": "implied-price-conflict",
                "category": cat,
                "implied_per_lot": {bid: _frac_str(v) for bid, v in entries},
                "note": ("bidders winning only this category paid different "
                         "per-lot rates; consistent with winning additional "
                         "bids, not uniform linear prices"),
            })
    return flags
