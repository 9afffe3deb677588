"""Brute-force oracles and the verification sweep.

Every guided computation has a slow second route computed from raw
definitions; this script cross-checks a few and runs a small sweep.
Run:  python demos/05_oracles.py
"""

import time

from tourmod import (
    brute_Delta,
    brute_delta,
    brute_modules,
    comodular_index,
    decomposability_index,
    nontrivial_modules,
    random_tournament,
    report_to_json,
    sweep_verify,
    transitive,
)

# Module enumeration: polynomial machinery vs full subset scan.
T = random_tournament(8, 7)
guided = [s.members() for s in nontrivial_modules(T)]
brute = [s.members() for s in brute_modules(T) if 2 <= len(s) < T.n]
print("modules agree on a random n=8:", guided == brute)

# Co-modular index: overlap-graph optimum vs exact set packing.
print("index (guided, packing):", comodular_index(T), brute_Delta(T))

# Inversion index: the halving identity vs a depth-first search over arc
# sets that cross every co-module.
five = transitive(5)
print("inversion count for the 5-chain (guided, search):",
      decomposability_index(five), brute_delta(five))

# The sweep validates every isomorphism class up to a size: guided index
# against packing, certificates replayed, search-oracle confirmations.
start = time.time()
for report in sweep_verify(6):
    print(report_to_json(report))
print(f"swept all classes to n=6 in {time.time() - start:.1f}s")
