"""Forking independence over spanned subtrees, and canonical bases.

``A`` is independent from ``B`` over ``C`` when every point of ``A``
projects to the same point on the subtree spanned by ``C`` as on the
larger subtree spanned by ``B`` and ``C``.  Nonforking extensions keep the
closest points, offsets and pairwise distances of a descriptor while
enlarging its context; the canonical base of a type is its set of closest
points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .skeleton import PointRef, TreeSkeleton, normalize_point, point_sort_key
from .geometry import project_to_subtree, spanned_subtree
from .typespace import ContextMismatchError, NTypeDescriptor, require_valid


@dataclass(frozen=True)
class IndependenceQuery:
    tree: TreeSkeleton
    A: tuple[PointRef, ...]
    B: tuple[PointRef, ...]
    C: tuple[PointRef, ...]


@dataclass(frozen=True)
class IndependenceVerdict:
    independent: bool
    witness: Optional[tuple[PointRef, PointRef, PointRef]] = None
    # witness = (a, projection onto E_{B u C}, projection onto E_C)

    def __bool__(self) -> bool:
        return self.independent


def is_star_independent(q: IndependenceQuery) -> IndependenceVerdict:
    """Whether every a in A projects identically onto E_C and E_{BC}."""
    tree = q.tree
    e_c = spanned_subtree(tree, q.C, adjoin_basepoint=True)
    e_bc = spanned_subtree(tree, tuple(q.B) + tuple(q.C), adjoin_basepoint=True)
    for a in sorted((normalize_point(tree, x) for x in q.A), key=point_sort_key):
        big, _ = project_to_subtree(tree, e_bc, a)
        small, _ = project_to_subtree(tree, e_c, a)
        if big != small:
            return IndependenceVerdict(False, witness=(a, big, small))
    return IndependenceVerdict(True)


def extend_nonforking(
    tree: TreeSkeleton, q: NTypeDescriptor, B: Iterable[PointRef]
) -> NTypeDescriptor:
    """The unique nonforking extension of ``q`` to the context spanned by
    its parameters together with ``B``: same closest points, offsets and
    pairwise distances over the enlarged context."""
    gens = (*q.context.generators, *B)
    out = replace(q, context=spanned_subtree(tree, gens, adjoin_basepoint=True))
    require_valid(out)  # cannot fail for valid inputs
    return out


def restrict_descriptor(q: NTypeDescriptor, A: Iterable[PointRef]) -> NTypeDescriptor:
    """Restriction of a descriptor to a smaller context (same data)."""
    out = replace(q, context=spanned_subtree(q.context.ambient, A, adjoin_basepoint=True))
    require_valid(out)
    return out


def is_nonforking_extension(q_small: NTypeDescriptor, q_big: NTypeDescriptor) -> bool:
    """Whether ``q_big`` extends ``q_small`` without forking: its closest
    points stay inside the small context and all data agrees."""
    if q_small.context.ambient != q_big.context.ambient:
        raise ContextMismatchError("descriptors live in different ambient trees")
    if q_small.radius != q_big.radius or q_small.n != q_big.n:
        return False
    for g in q_small.context.generators:
        if not q_big.context.covers(g):
            raise ContextMismatchError("contexts are not nested")
    for e in q_big.closest:
        if not q_small.context.covers(e):
            return False
    return (
        q_big.closest == q_small.closest
        and q_big.offsets == q_small.offsets
        and q_big.pairwise == q_small.pairwise
    )


def canonical_base(q: NTypeDescriptor) -> tuple[PointRef, ...]:
    """The set of closest points; fixing it pointwise fixes the type."""
    return tuple(sorted(set(q.closest), key=point_sort_key))
