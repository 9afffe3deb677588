"""Tournament values: building, transforming, enumerating, serialising.

Run from the repository root:  python demos/01_tournaments.py
"""

from tourmod import (
    canonical_form,
    dual,
    enumerate_tournaments,
    format_tourn_v1,
    invert,
    make_tournament,
    parse_tourn_v1,
    random_tournament,
    relabel,
    substitute,
    subtournament,
    transitive,
)

# A tournament orients every pair of vertices.  The two 3-vertex shapes:
chain = transitive(3)              # 0 -> 1 -> 2 (and 0 -> 2)
cycle = make_tournament(3, [1, 0, 1])  # 0 -> 1 -> 2 -> 0

print("chain:", chain, "arcs:", list(chain.arcs()))
print("cycle:", cycle, "arcs:", list(cycle.arcs()))

# Duality reverses every arc; a 3-cycle is isomorphic to its reverse,
# which canonical forms detect.
print("\ndual(chain) arcs:", list(dual(chain).arcs()))
print("cycle ~ dual(cycle):", canonical_form(cycle) == canonical_form(dual(cycle)))
print("chain ~ cycle:", canonical_form(chain) == canonical_form(cycle))

# Reversing arcs one at a time; reversing everything is duality.
flipped = invert(chain, [(0, 1)])
print("\nchain with (0,1) reversed:", list(flipped.arcs()))
print("invert(T, all arcs) == dual(T):", invert(chain, list(chain.arcs())) == dual(chain))

# Induced subtournaments come with the relabeling back to the original.
sub, labels = subtournament(transitive(5), {1, 2, 3})
print("\nchain on {1,2,3} is a 3-chain:", sub == transitive(3), "labels:", labels)

# Renaming vertices (vertex v is called perm[v]) gives an isomorphic copy;
# substituting a tournament for a vertex makes its copy a module.
print("\nchain renamed by [2, 0, 1]:", list(relabel(chain, [2, 0, 1]).arcs()))
print("cycle with vertex 0 doubled:", substitute(cycle, transitive(2), 0))

# Enumeration up to isomorphism: 1, 1, 2, 4, 12, 56, 456 classes.
print("\nisomorphism classes by size:",
      [len(enumerate_tournaments(n)) for n in range(1, 8)])

# Reproducible random tournaments (xorshift64*, platform independent).
T = random_tournament(6, seed=42)
print("\nrandom n=6, seed 42:", T)
print("same call again    :", random_tournament(6, seed=42))

# The three-line text format round-trips exactly.
text = format_tourn_v1(T)
print("\ntourn-v1 serialisation:")
print(text, end="")
print("round-trips:", parse_tourn_v1(text) == T)
