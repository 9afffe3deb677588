"""Minimum arc inversions that make a tournament indecomposable.

For a tournament with at least five vertices, the least number of arc
reversals producing an indecomposable tournament equals half the
co-modular index, rounded up.  The bound from below is a counting
argument: the reversed arcs must touch every part of a maximum
co-modular decomposition.  The bound from above is constructive, and
``synthesize_certificate`` realises it:

* while the index is at least 4, reversing the arc between distinguished
  vertices of the labelled parts M1 and M3 of a structured decomposition
  drops the index by exactly 2;
* at index 3, among the three parts (all with overlap count <= 1) there
  are representatives x, z, y of the distinguished subsets with
  x -> z -> y, and reversing the pair {x, y} lands at index 2;
* at index 2, some single reversal between the distinguished subsets of
  the two parts yields an indecomposable tournament.

Each step is the one path the proof gives, and one step, ``_reduce``,
serves synthesis and the three public reductions alike.  It reverses
the step's candidate arcs in turn and keeps the first whose result meets
the postcondition (the index reaches 2, or the result is
indecomposable), read off the result's record; when none does, it raises
RuntimeError naming the input, since that can only mean an
implementation bug.  The high step has one candidate, which lowers the
index by exactly 2 (the paper's step, see ``_plan``), so it builds no
record to check that; ``reduction_arc_high`` checks it anyway.

A step reads the state's record (``modular._Analysis``): its index, its
labelled decomposition and the tilde rule.  After a high step the next
state's record is derived from the step's (``_plan``): its minimal
co-modules and their overlaps are the old ones less at most four sets
that hold an end of the arc, and its walks are the old walks less those
sets.  So a certificate builds the trees of its input, of the state an
index-3 step reaches, of its final state and of any index-2 candidate
that fails, and no other.

Certificates serialise to single-line JSON objects with the fields
``n``, ``base_bits``, ``arcs``, ``trace`` and ``final_bits``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice, permutations as _permutations, product

from .core import (
    Arc,
    InputError,
    Tournament,
    _from_bit_string,
    _is_prime,
    _members,
    invert,
    relabel,
    transitive,
)
from .comodular import _structured, comodular_index
from .modular import _analysis

__all__ = [
    "GuidedChoiceWarning",
    "InversionCertificate",
    "VerificationResult",
    "certificate_from_json",
    "certificate_to_json",
    "decomposability_index",
    "erdos_transitive_extension",
    "feasible_single_arcs",
    "reduction_arc_high",
    "reduction_arc_three",
    "reduction_arc_two",
    "synthesize_certificate",
    "verify_certificate",
]

MIN_VERTICES = 5


class GuidedChoiceWarning(UserWarning):
    """Raised by nothing in the library.  ``perfbench/tracing.py`` imports
    it, so it goes with the next change to the benchmark (ROADMAP item 2)."""


def _require_size(T: Tournament):
    if T.n < MIN_VERTICES:
        raise InputError(
            f"the decomposability index is only defined from {MIN_VERTICES} vertices up"
        )


def decomposability_index(T: Tournament) -> int:
    """Minimum number of arc reversals making T indecomposable.

    Computed as ceil(comodular_index / 2); zero exactly when T is already
    indecomposable.  Rejects tournaments with fewer than five vertices,
    where no indecomposable target exists.
    """
    _require_size(T)
    return (comodular_index(T) + 1) // 2


def _expected_max_index(n: int) -> int:
    """The paper's Delta(n) = ceil((n+1)/2), the largest co-modular index on n vertices."""
    return (n + 2) // 2


def _expected_max_inversions(n: int) -> int:
    """The paper's delta(n) = ceil((n+1)/4): delta's rule applied to Delta(n)."""
    return (_expected_max_index(n) + 1) // 2


def _part_masks(D) -> tuple[tuple[int, ...], dict[str, int]]:
    """D from ``structured_delta_decomposition`` as ``_structured`` gives it."""
    decomp, labels = D
    parts = tuple(p.members.mask for p in decomp.parts)
    return parts, {k: c.members.mask for k, c in labels.items()}


def reduction_arc_high(T: Tournament, D) -> Arc:
    """Arc whose reversal lowers a co-modular index >= 4 by exactly 2.

    ``D`` is the (decomposition, labels) pair from
    ``structured_delta_decomposition``.  The arc joins the smallest
    vertices of the distinguished subsets of M1 and M3; the index drop is
    re-verified before returning.
    """
    A = _analysis(T)
    if A.index < 4:
        raise ValueError("this reduction applies only when the index is at least 4")
    arc, after = _reduce(T, A, _part_masks(D))
    if _analysis(after).index != A.index - 2:
        raise _failed("high-index reduction", T)
    return arc


def reduction_arc_three(T: Tournament, D) -> Arc:
    """Arc whose reversal takes a co-modular index of 3 down to 2.

    Reverses {x, y} for the first x -> z -> y with x, y, z in the
    distinguished subsets of the three parts, trying the 6 role
    assignments in order and the smallest vertices first.  The paper shows
    that every such pattern works; the result is checked once.
    """
    A = _analysis(T)
    if A.index != 3:
        raise ValueError("this reduction applies only when the index is exactly 3")
    return _reduce(T, A, _part_masks(D))[0]


def reduction_arc_two(T: Tournament, D) -> Arc:
    """Arc whose reversal makes a tournament of co-modular index 2
    indecomposable.

    Scans the pairs of tilde(M) x tilde(N), where M and N are the two
    labelled parts, and returns the first that works.  One always does:

    * Reversing an arc ab keeps every module that holds both endpoints or
      neither.  So an arc whose reversal makes T indecomposable has
      exactly one endpoint in every nontrivial module, and so in every
      co-module.
    * When M overlaps some M' in mc(T), both are twins {a, c} and
      {c, b}.  Their union {a, b, c} is a module, nontrivial for n >= 5,
      so a feasible arc has one endpoint in it; lying in M and in M', that
      endpoint is c, and tilde(M) = {c}.
    * So every feasible arc joins tilde(M) to tilde(N), and the main
      theorem (delta = 1 at index 2) says that one exists.
    """
    _require_size(T)
    A = _analysis(T)
    if A.index != 2:
        raise ValueError("this reduction applies only when the index is exactly 2")
    return _reduce(T, A, _part_masks(D))[0]


def _failed(step: str, T: Tournament) -> RuntimeError:
    return RuntimeError(f"guided {step} failed its check on n={T.n} bits={T.bit_string()}")


def _reduce(T: Tournament, view, D) -> tuple[Arc, Tournament]:
    """The step of the public reduction for T's index (at least 2): the
    first candidate arc whose reversal reaches the target index, and the
    state it leads to.  ``view`` is T's record, built from its tree or
    derived by ``_plan``, read for the index and the tilde rule; ``D``
    holds masks, as ``_structured`` returns them.  The high step's one arc
    is not checked (see ``_plan``)."""
    parts, labels = D
    if view.index >= 4:
        x, y = (_members(view.tilde(labels[k]))[0] for k in ("M1", "M3"))
        arc = Arc(x, y) if T.relation(x, y) else Arc(y, x)
        return arc, invert(T, [arc])
    if view.index == 3:
        # only the first pattern: the paper shows that every one works
        step, target = "three-part reduction", 2
        patterns = (
            (x, y)
            for part_m, part_n, part_l in _permutations(parts)
            for zs in [_members(view.tilde(part_l))]
            for x in _members(view.tilde(part_m))
            for y in _members(view.tilde(part_n))
            if any(T.relation(x, z) and T.relation(z, y) for z in zs)
        )
        pairs = islice(patterns, 1)
    else:
        step, target = "two-part reduction", 0
        pairs = product(_members(view.tilde(labels["M"])), _members(view.tilde(labels["N"])))
    for x, y in pairs:
        arc = Arc(x, y) if T.relation(x, y) else Arc(y, x)
        after = invert(T, [arc])
        if _analysis(after).index == target:
            return arc, after
    raise _failed(step, T)


def _plan(A, D, out: tuple[int, ...]):
    """The record of the state that the step from the record A, with
    labelled decomposition D, reaches, derived from A when the step is
    high (None otherwise); ``out`` holds that state's rows.

    The step starts from T, with index k >= 4 and labels M1..M4, and
    reverses the arc on e = {x, y}, x in tilde(M1) and y in tilde(M3)
    (both free by (C1)); it reaches T'.  The survivors are the step's
    parts other than M1 and M3, the ones that avoid e.  mc(T') is mc(T)
    without M1, M3 and their overlaps, with the same kinds and overlaps,
    and its index is k - 2:

    * A set that holds both ends or neither has the same arcs to the rest
      in T and T', so it is a module of one exactly when it is one of the
      other.  So a set of mc(T) that avoids e is in mc(T') with the same
      kind, as no co-module of T' lies strictly inside it, and two such
      sets overlap in both or in neither.
    * The sets of mc(T) that hold x are M1 and the one set it may overlap
      (any other meets M1, hence overlaps it), and likewise for y and M3;
      none holds both, as M2 beats y and loses to x (C2).  None is a
      co-module of T'.  {x} beats or loses to every other vertex, which
      a reversal undoes.  Otherwise both sides have two or more vertices;
      a side that is a module of T is split in T' by the end outside it,
      and a side that is none is split by every member of the other
      side, a module, so still by one whose arc did not change.
    * The survivors are k - 2 disjoint co-modules of T', and the paper's
      step (this is where (C1)-(C3) are needed) gives index(T') = k - 2.
      So a set R of mc(T') that holds an end meets some survivor S, or
      the survivors and R would be k - 1 disjoint co-modules; two minimal
      co-modules that meet overlap, so R = {a, s} and S = {s, t} are
      twins of T' with a in e.  No such R exists.  Let b be the other
      end, M the part that holds a and M' the one that holds b.  In T'
      the vertices t, s, a are consecutive children of a linear node, s
      in the middle, so in T every vertex but b treats t, s and a alike,
      and b treats s and t alike and a otherwise.  Reversing every arc
      keeps all of this, so take a beating s:
      - M = {a}: a beats every vertex.  In T' b beats a, so b beats s,
        and every other vertex loses to a, so to s: only a and b beat s.
        M' is not {b} (b beats s and loses to a), not a module of two or
        more vertices (it would beat s, as b does), and not the singleton
        children of a prime root (T's root is linear).
      - M is the singleton children of a prime root whose other child c
        holds S and M'.  a beats all of c, so in T' b beats a, hence s,
        and s beats the rest of c.  M' is not {b} (no vertex beats or
        loses to all under a prime root), not a module of two or more
        vertices (it would beat s, as b does), and not M.
      - M is a module of two or more vertices.  Each p in M - {a} treats
        a and s alike (R is a module of T') and s treats a and p alike (M
        is one of T), so p beats a and s.  Then a, s and every vertex
        outside M treat M - {a} alike: it is a module, so a single vertex
        p by the minimality of M, and p -> a -> s -> t is transitive and
        split in T by b alone, which treats s unlike a.  So M' is not {b},
        not a module of two or more vertices (another member would treat
        s and a as b does) and not the singleton children of a prime root
        (its other child, a module, would hold s and a).
    * So mc(T') is mc(T) without the sets that hold x or y, with the same
      kinds and overlaps, and the index is k - 2.  M1 is free, so it ends
      a walk, a path, and its overlap is the next node; cutting both off
      leaves a path, and likewise for M3.  So the walks of T' are those
      of T less those sets.  Positions in T's mask list keep the order of
      mc(T'), and a path's optima do not depend on its direction, so
      ``_Analysis.without``, which sorts the cut walks by least position,
      gives the decompositions in the order of T''s own record.
    """
    if A.index < 4:
        return None
    m1, m3 = D[1]["M1"], D[1]["M3"]
    return A.without(out, {m1, m3, *A.overlaps[m1], *A.overlaps[m3]})


@dataclass(frozen=True)
class InversionCertificate:
    """A replayable minimum sequence of arc reversals.

    ``arcs[i]`` is an arc of the tournament reached after the first i
    reversals; ``trace[i]`` records the co-modular index just before the
    i-th reversal; ``final`` is the indecomposable end state.
    """

    base: Tournament
    arcs: tuple[Arc, ...]
    trace: tuple[int, ...]
    final: Tournament


def synthesize_certificate(T: Tournament) -> InversionCertificate:
    """A verified minimum inversion set, built by index reduction.

    The certificate always contains exactly ceil(comodular_index / 2)
    arcs (none when T is already indecomposable).  Each step reads its
    state's record, derived from the step before when that step was high
    (``_plan``), and the final state's record is the one the last step
    checked.
    """
    _require_size(T)
    arcs: list[Arc] = []
    trace: list[int] = []
    state = T
    view = _analysis(T)
    while view.index >= 2:
        D = _structured(view)
        arc, state = _reduce(state, view, D)
        arcs.append(arc)
        trace.append(view.index)
        view = _plan(view, D, state.out_masks) or _analysis(state)
    return InversionCertificate(T, tuple(arcs), tuple(trace), state)


@dataclass(frozen=True)
class VerificationResult:
    """Boolean verdict plus a short reason code when it is False."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(T: Tournament, cert: InversionCertificate) -> VerificationResult:
    """Replay a certificate against T and check every claim.

    Checks, in order: the base matches T, each arc is present when its
    turn comes, the stored final state matches the replay, the final
    state is indecomposable (index 0), the number of arcs k equals
    ceil(comodular_index(T) / 2), and the trace has one entry per arc.
    Its first entry must equal comodular_index(T) exactly; entry i is
    checked only up to the pair {2(k-i)-1, 2(k-i)}, the indices whose
    half rounded up is the k-i reversals still to come (from five
    vertices up, each reversal of a minimum certificate lowers that half
    by exactly one).

    Both indices are read from the records of T and ``cert.final``, so the
    objects that synthesised a certificate bring their records, which
    synthesis built; a certificate parsed from JSON brings fresh objects.
    """
    if cert.base != T:
        return VerificationResult(False, "base mismatch")
    cur = T
    for a in cert.arcs:
        x, y = a
        if x == y or not 0 <= x < T.n or not 0 <= y < T.n or not cur.has_arc(x, y):
            return VerificationResult(False, "arc absent")
        cur = invert(cur, [a])
    if cur != cert.final:
        return VerificationResult(False, "final mismatch")
    if _analysis(cert.final).index != 0:
        return VerificationResult(False, "final decomposable")
    index = _analysis(T).index
    k = len(cert.arcs)
    if k != (index + 1) // 2:
        return VerificationResult(False, "length mismatch")
    trace = cert.trace
    if (
        len(trace) != k
        or (k and trace[0] != index)
        or any((t + 1) // 2 != k - i for i, t in enumerate(trace))
    ):
        return VerificationResult(False, "trace mismatch")
    return VerificationResult(True)


def feasible_single_arcs(T: Tournament) -> list[Arc]:
    """Arcs whose single reversal leaves T indecomposable, each reversed
    state tested by ``core._is_prime`` on core's pair closures alone, with
    no tree or record, so that it can check the ``reduction_arc_two`` proof.

    Nonempty exactly when one reversal suffices; in particular empty
    whenever the co-modular index is 4 or more.
    """
    _require_size(T)
    return [a for a in T.arcs() if _is_prime(invert(T, [a]))]


def certificate_to_json(cert: InversionCertificate) -> str:
    record = {
        "n": cert.base.n,
        "base_bits": cert.base.bit_string(),
        "arcs": [[a.tail, a.head] for a in cert.arcs],
        "trace": list(cert.trace),
        "final_bits": cert.final.bit_string(),
    }
    return json.dumps(record)


def certificate_from_json(line: str) -> InversionCertificate:
    """Parse one certificate line (its shape only: ``verify_certificate``
    checks its claims); anything malformed raises ValueError."""
    try:
        record = json.loads(line)
    except RecursionError:
        raise ValueError("certificate JSON is nested too deeply") from None
    fields = ("n", "base_bits", "arcs", "trace", "final_bits")
    if not isinstance(record, dict) or any(k not in record for k in fields):
        raise ValueError(f"a certificate is a JSON object with the fields {', '.join(fields)}")
    n, arcs, trace = record["n"], record["arcs"], record["trace"]
    if type(n) is not int:  # JSON true/false would pass isinstance(n, int)
        raise ValueError("certificate field n must be an integer")
    bit_strings = (record["base_bits"], record["final_bits"])
    if not all(isinstance(b, str) for b in bit_strings):
        raise ValueError("certificate bit fields must be strings of 0s and 1s")
    if not isinstance(arcs, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(type(v) is int for v in a) for a in arcs
    ):
        raise ValueError("certificate field arcs must be a list of integer pairs")
    if not isinstance(trace, list) or not all(type(t) is int for t in trace):
        raise ValueError("certificate field trace must be a list of integers")
    base, final = (_from_bit_string(n, b) for b in bit_strings)
    return InversionCertificate(base, tuple(Arc(a, b) for a, b in arcs), tuple(trace), final)


def erdos_transitive_extension(T: Tournament) -> Tournament:
    """A transitive tournament on the same vertices whose module family
    strictly contains that of the non-transitive input.

    It orders the vertices by a depth-first walk of the decomposition
    tree, taking linear children in dominance order.  Every node is then
    an interval, and so is every run of consecutive children of a linear
    node, so every module of T is a module of the transitive tournament on
    that order.  T is not transitive (it has more than one transitive
    run), so some node is prime with at least three children; its first
    two children form an interval that is no module of T.
    """
    A = _analysis(T)
    if len(A.runs) == 1:
        raise ValueError("input is already transitive")
    children = {S: kids for S, _, kids in A.tree}
    order = []
    stack = [(1 << T.n) - 1]
    while stack:
        S = stack.pop()
        if S in children:
            stack += reversed(children[S])
        else:
            order.append(S.bit_length() - 1)
    return relabel(transitive(T.n), order)
