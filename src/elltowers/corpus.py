"""Built-in regression corpus: six reference towers with exact data.

Each entry carries a tower spec document, the factored spanning-tree
counts per level, the ell-part Iwasawa fit, the omega-growth verdict,
and per-prime valuation expectations.  `selftest` recomputes the
counts, the fit and the verdict and compares them exactly; the tests
compare the per-prime fields with analyze_prime's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: dict
    depth: int
    kappa_factors: tuple[dict, ...]  # kappa_n as {prime: exponent}, n = 0..depth
    ell_fit: tuple[int, int, int, int] | None  # (mu, lambda, nu, onset)
    verdict: str
    primes: dict = field(default_factory=dict)  # p -> expected analyze_prime fields

    def kappa(self, n: int) -> int:
        out = 1
        for p, e in self.kappa_factors[n].items():
            out *= p**e
        return out


def _bouquet_spec(ell, precision, voltages):
    return {
        "ell": ell,
        "precision": precision,
        "vertices": ["v1"],
        "edges": [{"tail": "v1", "head": "v1", "voltage": str(v)} for v in voltages],
    }


BOUQUET3_ELL5 = CorpusEntry(
    name="bouquet3-ell5",
    spec=_bouquet_spec(5, 4, [1, 1, 1]),
    depth=4,
    kappa_factors=(
        {},
        {3: 4, 5: 1},
        {3: 24, 5: 2},
        {3: 124, 5: 3},
        {3: 624, 5: 4},
    ),
    ell_fit=(0, 1, 0, 1),
    verdict="bounded",
    primes={
        3: {"mu": 1, "n0": 1, "nu": -1},
        7: {"mu": 0, "divides_any": False},
    },
)

BOUQUET4_ELL3 = CorpusEntry(
    name="bouquet4-ell3",
    spec=_bouquet_spec(3, 4, [1, 1, 2, 2]),
    depth=4,
    kappa_factors=(
        {},
        {2: 4, 3: 1},
        {2: 10, 3: 2, 17: 2},
        {2: 28, 3: 3, 17: 2, 53: 2, 109: 2},
        {2: 82, 3: 4, 17: 2, 53: 2, 109: 2, 2269: 2, 4373: 2, 19441: 2},
    ),
    ell_fit=(0, 1, 0, 1),
    verdict="unbounded",
    primes={
        2: {"mu": 1, "n0": 2, "nu": 1},
        17: {"mu": 0, "nu": 2, "closed_form_from": 2},
        53: {"mu": 0, "nu": 2, "closed_form_from": 3},
    },
)

THETA_ELL5 = CorpusEntry(
    name="theta-ell5",
    spec={
        "ell": 5,
        "precision": 4,
        "vertices": ["v1", "v2"],
        "edges": [
            {"tail": "v1", "head": "v2", "voltage": "1"},
            {"tail": "v2", "head": "v1", "voltage": "2"},
            {"tail": "v2", "head": "v1", "voltage": "2"},
        ],
    },
    depth=4,
    kappa_factors=(
        {3: 1},
        {2: 4, 3: 1, 5: 1},
        {2: 24, 3: 1, 5: 2},
        {2: 124, 3: 1, 5: 3},
        {2: 624, 3: 1, 5: 4},
    ),
    ell_fit=(0, 1, 0, 1),
    verdict="bounded",
    primes={
        2: {"mu": 1, "n0": 1, "nu": -1},
        3: {"mu": 0, "n0": 1, "nu": 1},
        7: {"mu": 0, "divides_any": False},
    },
)

BOUQUET4_ELL3_SKEW = CorpusEntry(
    name="bouquet4-ell3-skew",
    spec=_bouquet_spec(3, 4, [1, 2, 2, 2]),
    depth=4,
    kappa_factors=(
        {},
        {2: 4, 3: 1},
        {2: 4, 3: 2, 127: 2},
        {2: 4, 3: 3, 127: 2, 3295783: 2},
        {2: 4, 3: 4, 127: 2, 1621: 2, 3295783: 2, 22480434859526947: 2},
    ),
    ell_fit=(0, 1, 0, 1),
    verdict="unbounded",
    primes={
        2: {"mu": 0, "nu": 4, "closed_form_from": 1},
        127: {"mu": 0, "closed_form_from": 2},
    },
)

PARALLEL4_ELL2 = CorpusEntry(
    name="parallel4-ell2",
    spec={
        "ell": 2,
        "precision": 7,
        "vertices": ["v1", "v2"],
        "edges": [
            {"tail": "v1", "head": "v2", "voltage": "1"},
            {"tail": "v1", "head": "v2", "voltage": "2"},
            {"tail": "v1", "head": "v2", "voltage": "3"},
            {"tail": "v1", "head": "v2", "voltage": "4"},
        ],
    },
    depth=6,
    kappa_factors=(
        {2: 2},
        {2: 5},
        {2: 12},
        {2: 17, 17: 2},
        {2: 22, 17: 2, 1217: 2},
        {2: 27, 17: 2, 257: 2, 1217: 2, 23041: 2},
        {2: 32, 17: 2, 257: 2, 1217: 2, 23041: 2, 158209: 2, 886538753: 2},
    ),
    ell_fit=(0, 5, 2, 2),
    verdict="unbounded",
    primes={
        17: {"mu": 0, "nu": 2},
    },
)

BOUQUET2_SQRT17_ELL2 = CorpusEntry(
    name="bouquet2-sqrt17-ell2",
    spec={
        "ell": 2,
        "precision": 8,
        "vertices": ["v1"],
        "edges": [
            {"tail": "v1", "head": "v1",
             "voltage": {"kind": "sqrt", "radicand": 17, "branch": 1}},
            {"tail": "v1", "head": "v1", "voltage": "5"},
        ],
    },
    depth=7,
    kappa_factors=(
        {},
        {2: 2},
        {2: 5},
        {2: 12},
        {2: 17, 17: 2},
        {2: 22, 17: 2, 1217: 2},
        {2: 27, 17: 2, 257: 2, 1217: 2, 23041: 2},
        {2: 32, 17: 2, 257: 4, 1217: 2, 23041: 2, 1518337: 2, 27744257: 2},
    ),
    ell_fit=(0, 5, -3, 3),
    verdict="inapplicable",
    primes={
        17: {"mu": 0, "observed": (0, 0, 0, 0, 2, 2, 2, 2)},
    },
)

CORPUS: tuple[CorpusEntry, ...] = (
    BOUQUET3_ELL5,
    BOUQUET4_ELL3,
    THETA_ELL5,
    BOUQUET4_ELL3_SKEW,
    PARALLEL4_ELL2,
    BOUQUET2_SQRT17_ELL2,
)
