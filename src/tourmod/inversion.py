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
  the two parts yields an indecomposable tournament, unless deleting a
  vertex already leaves one indecomposable, in which case a single
  reversal still suffices and a full arc scan finds it.

Every guided step re-verifies its postcondition; if verification ever
failed (it cannot, short of an implementation bug), the step would warn
and fall back to an exhaustive arc scan, keeping results correct.

Certificates serialise to single-line JSON objects with the fields
``n``, ``base_bits``, ``arcs``, ``trace`` and ``final_bits``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import permutations as _permutations

from .core import Arc, Tournament, VertexSet, _from_bit_string, invert, pair_count
from .comodular import _Analysis, _structured, comodular_index
from .modular import _is_transitive_mask, is_indecomposable, nontrivial_modules

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
    """A guided reduction step failed verification and fell back to a scan."""


def _require_size(T: Tournament):
    if T.n < MIN_VERTICES:
        raise ValueError(
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


def _arc_between(T: Tournament, x: int, y: int) -> Arc:
    return Arc(x, y) if T.relation(x, y) else Arc(y, x)


def _scan_for_index(T: Tournament, target: int) -> tuple[Arc, _Analysis] | None:
    for a in T.arcs():
        after = _Analysis(invert(T, [a]))
        if after.index == target:
            return a, after
    return None


def reduction_arc_high(T: Tournament, D) -> Arc:
    """Arc whose reversal lowers a co-modular index >= 4 by exactly 2.

    ``D`` is the (decomposition, labels) pair from
    ``structured_delta_decomposition``.  The arc joins the smallest
    vertices of the distinguished subsets of M1 and M3; the index drop is
    re-verified before returning.
    """
    return _reduce_high(_Analysis(T), D)[0]


def _reduce_high(A: _Analysis, D) -> tuple[Arc, _Analysis]:
    """The arc of ``reduction_arc_high`` and the analysis of the state it
    leads to."""
    if A.index < 4:
        raise ValueError("this reduction applies only when the index is at least 4")
    T = A.tournament
    _, labels = D
    x = min(A.tilde(labels["M1"]))
    y = min(A.tilde(labels["M3"]))
    arc = _arc_between(T, x, y)
    after = _Analysis(invert(T, [arc]))
    if after.index == A.index - 2:
        return arc, after
    warnings.warn(
        "guided high-index reduction failed verification; scanning all arcs",
        GuidedChoiceWarning,
    )
    found = _scan_for_index(T, A.index - 2)
    if found is None:
        raise RuntimeError("no single arc reversal lowers the index by two")
    return found


def reduction_arc_three(T: Tournament, D) -> Arc:
    """Arc whose reversal takes a co-modular index of 3 down to 2.

    Tries all 6 role assignments of the three parts and all choices of
    x, z, y in their distinguished subsets with x -> z -> y, smallest
    vertices first; the first verified pattern wins.
    """
    return _reduce_three(_Analysis(T), D)[0]


def _reduce_three(A: _Analysis, D) -> tuple[Arc, _Analysis]:
    """The arc of ``reduction_arc_three`` and the analysis of the state it
    leads to."""
    if A.index != 3:
        raise ValueError("this reduction applies only when the index is exactly 3")
    T = A.tournament
    decomp, _ = D
    matched = False
    for part_m, part_n, part_l in _permutations(decomp.parts):
        xs = sorted(A.tilde(part_m))
        ys = sorted(A.tilde(part_n))
        zs = sorted(A.tilde(part_l))
        for x in xs:
            for y in ys:
                for z in zs:
                    if T.relation(x, z) and T.relation(z, y):
                        matched = True
                        arc = _arc_between(T, x, y)
                        after = _Analysis(invert(T, [arc]))
                        if after.index == 2:
                            return arc, after
    warnings.warn(
        "guided three-part reduction "
        + ("failed verification" if matched else "found no pattern")
        + "; scanning all arcs",
        GuidedChoiceWarning,
    )
    found = _scan_for_index(T, 2)
    if found is None:
        raise RuntimeError("no single arc reversal brings the index to two")
    return found


def reduction_arc_two(T: Tournament, D) -> Arc:
    """Arc whose reversal makes a tournament of co-modular index 2
    indecomposable.

    Scans pairs from the distinguished subsets of the two labelled parts
    first (guaranteed to succeed whenever every one-vertex deletion
    leaves the tournament decomposable); otherwise one vertex deletion is
    already indecomposable, a single reversal still suffices, and a full
    arc scan locates it.
    """
    _require_size(T)
    return _reduce_two(_Analysis(T), D)


def _reduce_two(A: _Analysis, D) -> Arc:
    T = A.tournament
    if A.index != 2:
        raise ValueError("this reduction applies only when the index is exactly 2")
    _, labels = D
    for x in sorted(A.tilde(labels["M"])):
        for y in sorted(A.tilde(labels["N"])):
            arc = _arc_between(T, x, y)
            if is_indecomposable(invert(T, [arc])):
                return arc
    for arc in T.arcs():
        if is_indecomposable(invert(T, [arc])):
            return arc
    raise RuntimeError("no single arc reversal makes the tournament indecomposable")


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
    arcs (none when T is already indecomposable).
    """
    _require_size(T)
    arcs: list[Arc] = []
    trace: list[int] = []
    # one analysis per state: the step that reaches a state analyses it to
    # verify the index drop, and the next step starts from that analysis
    A = _Analysis(T)
    while A.index >= 3:
        reduce = _reduce_high if A.index >= 4 else _reduce_three
        step, after = reduce(A, _structured(A))
        arcs.append(step)
        trace.append(A.index)
        A = after
    final = A.tournament
    if A.index == 2:
        step = _reduce_two(A, _structured(A))
        arcs.append(step)
        trace.append(2)
        final = invert(final, [step])
    return InversionCertificate(T, tuple(arcs), tuple(trace), final)


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
    state is indecomposable, and the number of arcs equals
    ceil(comodular_index(T) / 2).
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
    if not is_indecomposable(cur):
        return VerificationResult(False, "final decomposable")
    if len(cert.arcs) != (comodular_index(T) + 1) // 2:
        return VerificationResult(False, "length mismatch")
    return VerificationResult(True)


def feasible_single_arcs(T: Tournament) -> list[Arc]:
    """Arcs whose single reversal leaves T indecomposable.

    Nonempty exactly when one reversal suffices; in particular empty
    whenever the co-modular index is 4 or more.
    """
    _require_size(T)
    return [a for a in T.arcs() if is_indecomposable(invert(T, [a]))]


def certificate_to_json(cert: InversionCertificate) -> str:
    record = {
        "n": cert.base.n,
        "base_bits": cert.base.bit_string(),
        "arcs": [[a.tail, a.head] for a in cert.arcs],
        "trace": list(cert.trace),
        "final_bits": cert.final.bit_string(),
    }
    return json.dumps(record, separators=(", ", ": "))


def certificate_from_json(line: str) -> InversionCertificate:
    """Parse one certificate line (its shape only: ``verify_certificate``
    checks its claims); anything malformed raises ValueError."""
    record = json.loads(line)
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


def erdos_transitive_extension(T: Tournament, bound: int = 7) -> Tournament:
    """A transitive tournament on the same vertices whose module family
    strictly contains that of the non-transitive input.

    Vertex orderings are scanned lexicographically; an ordering works when
    every nontrivial module of T occupies consecutive positions.  Strict
    growth is then automatic, but is checked anyway.
    """
    if T.n > bound:
        raise ValueError(f"ordering scan limited to n <= {bound}, got n={T.n}")
    if _is_transitive_mask(T, (1 << T.n) - 1):
        raise ValueError("input is already transitive")
    module_masks = {s.mask for s in nontrivial_modules(T)}
    interval_count = pair_count(T.n) - 1  # intervals of length 2..n-1
    if len(module_masks) >= interval_count:
        # all intervals being modules forces transitivity, contradicting the pre
        raise RuntimeError("module family already saturates the interval family")
    for order in _permutations(range(T.n)):
        position = [0] * T.n
        for pos, v in enumerate(order):
            position[v] = pos
        ok = True
        for mask in module_masks:
            spots = [position[v] for v in range(T.n) if mask >> v & 1]
            if max(spots) - min(spots) + 1 != len(spots):
                ok = False
                break
        if not ok:
            continue
        bits = 0
        k = 0
        for i in range(T.n):
            for j in range(i + 1, T.n):
                if position[i] < position[j]:
                    bits |= 1 << k
                k += 1
        return Tournament(T.n, bits)
    raise RuntimeError("no module-preserving transitive ordering found")
