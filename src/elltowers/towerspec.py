"""The JSON tower-spec input document.

Schema (all keys required unless noted):

    {
      "ell": 5,                  -- the tower prime
      "precision": 4,            -- ell-adic truncation depth N
      "vertices": ["v1", "v2"],
      "edges": [
        {"tail": "v1", "head": "v2", "voltage": "1"},
        {"tail": "v2", "head": "v1", "voltage": {"kind": "padic",
                                                  "digits": [2, 0, 1, 3]}},
        {"tail": "v2", "head": "v1", "voltage": {"kind": "sqrt",
                                                  "radicand": 17,
                                                  "branch": 1}}
      ]
    }

A voltage is *integral* only when written as a decimal integer (string
or JSON number); "padic" and "sqrt" voltages are ell-adic declarations
and keep the whole assignment non-integral even if their digits look
small.  Big integers are decimal strings on output; parsing accepts
either form.

For an all-integer assignment the declared precision is a minimum: the
working truncation is raised automatically so integer exponents lift
unambiguously.  For padic/sqrt voltages the declared precision is the
contract, and levels beyond it are errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factorint import is_probable_prime
from .graphs import Multigraph, VoltageAssignment
from .padics import TruncatedPadic, padic_sqrt


class SpecParseError(ValueError):
    """The document does not satisfy the tower-spec schema."""


@dataclass(frozen=True)
class TowerSpec:
    ell: int
    precision: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, object], ...]  # (tail, head, canonical voltage)

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "precision": self.precision,
            "vertices": list(self.vertices),
            "edges": [
                {"tail": t, "head": h, "voltage": v if isinstance(v, str) else dict(v)}
                for t, h, v in self.edges
            ],
        }


def _canonical_voltage(raw) -> object:
    """Validate one voltage entry and return its canonical form:
    decimal string for integers, plain dict for padic/sqrt kinds."""
    if isinstance(raw, bool):
        raise SpecParseError("voltage must be an integer string or a kind object")
    if isinstance(raw, int):
        return str(raw)
    if isinstance(raw, str):
        s = raw.strip()
        try:
            int(s)
        except ValueError:
            raise SpecParseError(f"voltage string {raw!r} is not a decimal integer") from None
        return str(int(s))
    if isinstance(raw, dict):
        kind = raw.get("kind")
        if kind == "padic":
            digits = raw.get("digits")
            if not isinstance(digits, list) or not digits or not all(
                isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in digits
            ):
                raise SpecParseError("padic voltage needs a nonempty list of digits >= 0")
            return {"kind": "padic", "digits": list(digits)}
        if kind == "sqrt":
            rad, branch = raw.get("radicand"), raw.get("branch")
            if not isinstance(rad, int) or isinstance(rad, bool):
                raise SpecParseError("sqrt voltage needs an integer radicand")
            if not isinstance(branch, int) or isinstance(branch, bool):
                raise SpecParseError("sqrt voltage needs an integer branch selector")
            return {"kind": "sqrt", "radicand": rad, "branch": branch}
        raise SpecParseError(f"unknown voltage kind {kind!r}")
    raise SpecParseError(f"cannot interpret voltage {raw!r}")


def parse_tower_spec(doc) -> TowerSpec:
    if not isinstance(doc, dict):
        raise SpecParseError("top level must be a JSON object")
    for key in ("ell", "precision", "vertices", "edges"):
        if key not in doc:
            raise SpecParseError(f"missing required key {key!r}")
    ell = doc["ell"]
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 2 or not is_probable_prime(ell):
        raise SpecParseError(f"ell must be a prime number, got {ell!r}")
    precision = doc["precision"]
    if not isinstance(precision, int) or isinstance(precision, bool) or precision < 1:
        raise SpecParseError("precision must be an integer >= 1")
    vertices = doc["vertices"]
    if (not isinstance(vertices, list) or not vertices
            or not all(isinstance(v, str) for v in vertices)):
        raise SpecParseError("vertices must be a nonempty list of names")
    if len(set(vertices)) != len(vertices):
        raise SpecParseError("vertex names must be unique")
    if not isinstance(doc["edges"], list) or not doc["edges"]:
        raise SpecParseError("edges must be a nonempty list")
    edges = []
    for k, e in enumerate(doc["edges"]):
        if not isinstance(e, dict):
            raise SpecParseError(f"edge #{k} must be an object")
        for key in ("tail", "head", "voltage"):
            if key not in e:
                raise SpecParseError(f"edge #{k} is missing {key!r}")
        if e["tail"] not in vertices or e["head"] not in vertices:
            raise SpecParseError(f"edge #{k} references an undeclared vertex")
        edges.append((e["tail"], e["head"], _canonical_voltage(e["voltage"])))
    return TowerSpec(ell, precision, tuple(vertices), tuple(edges))


def build_assignment(spec: TowerSpec) -> VoltageAssignment:
    """Materialize the multigraph and voltage assignment of a spec."""
    index = {name: i for i, name in enumerate(spec.vertices)}
    graph = Multigraph(tuple(spec.vertices),
                       tuple((index[t], index[h]) for t, h, _ in spec.edges))
    if all(isinstance(v, str) for _, _, v in spec.edges):
        values = [int(v) for _, _, v in spec.edges]
        return VoltageAssignment.from_integers(graph, spec.ell, values, spec.precision)
    volts = []
    for _, _, v in spec.edges:
        if isinstance(v, str):
            volts.append(TruncatedPadic(spec.ell, spec.precision, int(v)))
        elif v["kind"] == "padic":
            digits = v["digits"]
            if len(digits) < spec.precision:
                raise SpecParseError(
                    f"padic voltage has {len(digits)} digits, precision {spec.precision} "
                    "requires at least that many (no zero-padding)"
                )
            if any(d >= spec.ell for d in digits):
                raise SpecParseError(f"padic digits must be < ell = {spec.ell}")
            residue = sum(d * spec.ell**i for i, d in enumerate(digits[: spec.precision]))
            volts.append(TruncatedPadic(spec.ell, spec.precision, residue))
        else:
            volts.append(padic_sqrt(v["radicand"], spec.ell, spec.precision, v["branch"]))
    return VoltageAssignment.from_padics(graph, volts)
