"""Joint degree matrix: edge counts between degree classes.

The JDM of a graph records, for each degree pair (k, l), how many edges
join a degree-k node to a degree-l node. It pins down the degree
sequence, density and degree correlations of a graph exactly, which is
what makes it a universal fitting target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import ParameterError


def canonical_key(k, l):
    return (k, l) if k <= l else (l, k)


@dataclass(frozen=True)
class JointDegreeMatrix:
    """Sparse JDM: ``entries[(k, l)] -> edge count`` with k <= l keys.

    The class sizes n_k follow from the entries (each degree-k node
    contributes k edge endpoints); :func:`netfit.generators.validate_jdm`
    computes them.
    """

    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for (k, l), c in self.entries.items():
            key = canonical_key(int(k), int(l))
            norm[key] = norm.get(key, 0) + int(c)
        object.__setattr__(self, "entries", norm)

    def endpoint_totals(self):
        """Edge endpoints per degree k; an entry (k, k) counts twice."""
        totals = {}
        for (k, l), c in self.entries.items():
            totals[k] = totals.get(k, 0) + c
            totals[l] = totals.get(l, 0) + c
        return totals

    def to_json_obj(self):
        return {
            "entries": [[k, l, c] for (k, l), c in sorted(self.entries.items())],
        }

    @classmethod
    def from_json_obj(cls, obj):
        entries = obj.get("entries") if isinstance(obj, dict) else None
        if not isinstance(entries, list) or any(
            not isinstance(e, list) or len(e) != 3 or any(type(x) is not int for x in e)
            for e in entries
        ):
            raise ParameterError("jdm entries must be a list of [k, l, count] integer triples")
        return cls(entries={(k, l): c for k, l, c in entries})
