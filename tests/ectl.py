"""Existential CTL without next-time and globally, evaluated directly.

The logic that stuttering simulation preserves: acceptance criterion 7
checks that every formula denotes a union of the computed equivalence
classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from stuttersim import KripkeStructure, ValidationError, pos_naive


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class NegAtom:
    name: str


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ExistsUntil:
    left: "Formula"
    right: "Formula"


Formula = Atom | NegAtom | And | Or | ExistsUntil


def eval_formula(k: KripkeStructure, phi: Formula) -> set[int]:
    """Denotation of ``phi``: the set of states satisfying it.

    The until clause is ``[E phi1 U phi2] = [phi2] + pos([phi1], [phi2])``
    with finite (possibly empty) stuttering prefixes.  Raises
    ValidationError for atoms outside the structure's atom universe.
    """
    if isinstance(phi, (Atom, NegAtom)):
        if phi.name not in frozenset().union(*k.labels):
            raise ValidationError(f"unknown atom {phi.name!r}")
        sat = {s for s in k.states() if phi.name in k.labels[s]}
        if isinstance(phi, Atom):
            return sat
        return set(k.states()) - sat
    if isinstance(phi, And):
        return eval_formula(k, phi.left) & eval_formula(k, phi.right)
    if isinstance(phi, Or):
        return eval_formula(k, phi.left) | eval_formula(k, phi.right)
    if isinstance(phi, ExistsUntil):
        lhs = eval_formula(k, phi.left)
        rhs = eval_formula(k, phi.right)
        return rhs | pos_naive(k, lhs, rhs)
    raise TypeError(f"not a formula: {phi!r}")
