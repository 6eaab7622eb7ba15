#!/usr/bin/env python3
"""Regenerate the bundled sample corpus (deterministic synthetic graphs).

Twenty small graphs, five per domain label, written as edge lists plus a
manifest. Each is a seeded mix of a planted-partition core and a few
degree-proportional hub overlays so that no single model family
reproduces it exactly; the four domain recipes differ in group count,
density and hub weight. Run from the repo root:

    python tools/make_corpus.py
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from netfit.generators import CommunityParams, generate_community  # noqa: E402
from netfit.graph import Graph, serialize_edge_list  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "netfit" / "data" / "corpus"

# groups, p_in, p_out, hub fraction, size range
PROFILES = {
    "social": (4, 0.35, 0.012, 0.18, (40, 90)),
    "food": (2, 0.45, 0.06, 0.10, (30, 60)),
    "brain": (5, 0.40, 0.02, 0.12, (50, 90)),
    "chems": (3, 0.30, 0.015, 0.06, (35, 70)),
}


def build_graph(rng, domain):
    groups, p_in, p_out, hub_fraction, (lo, hi) = PROFILES[domain]
    size = int(rng.integers(lo, hi + 1))
    sizes = []
    remaining = size
    for i in range(groups - 1):
        share = max(2, int(remaining * float(rng.uniform(0.5, 1.5)) / (groups - i)))
        share = min(share, remaining - 2 * (groups - i - 1))
        sizes.append(share)
        remaining -= share
    sizes.append(remaining)
    core = generate_community(
        CommunityParams(
            tuple(sizes),
            min(1.0, p_in * float(rng.uniform(0.7, 1.3))),
            min(1.0, p_out * float(rng.uniform(0.5, 1.5))),
        ),
        int(rng.integers(2**48)),
    )
    adj = [set(core.neighbors(u)) for u in range(core.node_count)]

    def link(u, v):
        adj[u].add(v)
        adj[v].add(u)

    hubs = rng.choice(size, size=max(1, int(hub_fraction * size)), replace=False)
    for hub in sorted(int(h) for h in hubs):
        extra = int(rng.integers(2, max(3, size // 12)))
        for _ in range(extra):
            weights = np.array([len(nbrs) + 1 for nbrs in adj], dtype=float)
            weights[hub] = 0.0
            link(hub, int(rng.choice(size, p=weights / weights.sum())))
    for u in range(size):
        if not adj[u]:
            other = int(rng.integers(size - 1))
            link(u, other if other < u else other + 1)
    return Graph.from_rows(adj)


def corpus_recipes():
    """(name, domain, seed) of each corpus graph, five per domain.

    The seed is fixed per name (never Python's salted hash()).
    """
    for domain in PROFILES:
        for i in range(5):
            name = f"{domain}_{i:02d}"
            yield name, domain, sum(ord(c) for c in name) * 7919 + i


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, domain, seed in corpus_recipes():
        g = build_graph(np.random.default_rng(seed), domain)
        (OUT / f"{name}.txt").write_text(serialize_edge_list(g), encoding="utf-8", newline="\n")
        manifest.append((name, f"{name}.txt", domain))
        print(f"{name}: n={g.node_count} m={g.edge_count}")
    with open(OUT / "manifest.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "path", "domain"])
        writer.writerows(manifest)
    print(f"wrote {len(manifest)} graphs to {OUT}")


if __name__ == "__main__":
    main()
