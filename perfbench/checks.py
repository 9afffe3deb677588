"""Output checks, run outside the timed region.

Each check returns a list of failure reasons (empty when the output is
right).  Module tests here are written from the definition, not taken
from the library, so they stay an independent check on its answers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from tourmod import certificate_from_json, verify_certificate

PINNED_PATH = Path(__file__).with_name("pinned.json")


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="ascii"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _is_module(T, mask: int) -> bool:
    for x in range(T.n):
        if mask >> x & 1:
            continue
        rel = T.out_masks[x] & mask
        if rel and rel != mask:
            return False
    return True


def _is_comodule(T, mask: int) -> bool:
    comp = ((1 << T.n) - 1) & ~mask
    return any(2 <= m.bit_count() < T.n and _is_module(T, m) for m in (mask, comp))


def _mask(members) -> int:
    return sum(1 << v for v in members)


def _disjoint(masks: list[int]) -> bool:
    union = 0
    for m in masks:
        if union & m:
            return False
        union |= m
    return True


def check_instance(inst, rc: tuple[int, int], analyze_out: str, certify_out: str) -> list[str]:
    """Check the ``analyze`` and ``certify`` stdout of one instance."""
    if rc != (0, 0):
        return [f"exit codes {rc}"]
    try:
        return _check_outputs(inst, json.loads(analyze_out), certificate_from_json(certify_out))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_outputs(inst, rec: dict, cert) -> list[str]:
    T = inst.tournament
    bad = []
    index = rec["Delta"]
    if rec["n"] != T.n or cert.base != T:
        bad.append("output describes another tournament")
    if rec["indecomposable"] != (index == 0) or rec["delta"] != (index + 1) // 2:
        bad.append("indices inconsistent")
    parts = [_mask(p) for p in rec["delta_decomposition"]]
    if len(parts) != index or not _disjoint(parts):
        bad.append("decomposition is not Delta disjoint parts")
    if not all(_is_comodule(T, m) for m in parts + [_mask(c) for c in rec["mc"]]):
        bad.append("a reported part or minimal co-module is no co-module")
    blocks = [_mask(b) for b in rec["components"]]
    if sorted(v for b in rec["components"] for v in b) != list(range(T.n)):
        bad.append("components do not partition the vertices")
    if not all(_is_module(T, b) for b in blocks):
        bad.append("a component is no module")
    if len(cert.arcs) != rec["delta"] or list(cert.trace[:1]) != ([index] if cert.arcs else []):
        bad.append("certificate length or trace disagrees with the analysis")
    if not verify_certificate(T, cert):
        bad.append("certificate fails replay")
    if inst.kind == "chain":
        if index != (T.n + 2) // 2 or len(cert.arcs) != -(-(T.n + 1) // 4):
            bad.append("transitive tournament off the extremal indices")
        if len(blocks) != 1:
            bad.append("transitive tournament split into several components")
    if inst.kind == "composed" and (index < 2 or not _is_module(T, inst.module)):
        bad.append("composed tournament reported indecomposable")
    return bad


def check_sweep(rc: int, stdout: bytes, pinned_lines: list[str]) -> int:
    """Number of classes whose sweep report line is wrong.

    A nonzero exit or a wrong line count fails every class; otherwise
    each pinned line that differs fails the classes it covers.
    """
    total = sum(json.loads(line)["class_count"] for line in pinned_lines)
    lines = stdout.decode("ascii", "replace").split("\n")
    if rc != 0 or lines[-1] != "" or len(lines) - 1 != len(pinned_lines):
        return total
    return sum(
        json.loads(want)["class_count"]
        for got, want in zip(lines, pinned_lines)
        if got != want
    )
