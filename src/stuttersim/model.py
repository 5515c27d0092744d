"""Core model: Kripke structures, partitions, block preorders, quotients.

States are dense integer ids in [0, num_states).  A label is a set of
atomic-proposition names; label equality is set equality.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Iterable, Iterator, NamedTuple, Sequence


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NotAPreorderError(ValidationError):
    """A relation that must be reflexive and transitive is not.

    ``witness`` is a pair showing the violation: ``(s, s)`` missing for
    reflexivity, or ``(s, u)`` missing while ``(s, t)`` and ``(t, u)``
    are present.
    """

    def __init__(self, message: str, witness: tuple[int, int]):
        super().__init__(f"{message} (witness pair {witness})")
        self.witness = witness


class _Successors(NamedTuple):
    """Checked successor lists, one per state, that a builder in this
    package hands ``KripkeStructure`` with its labels already shared."""

    lists: list[list[int]]


class KripkeStructure:
    """Finite transition system with a labeling of states by atom sets.

    The transition relation need not be total.  Instances are treated as
    immutable after construction.  It stores the edges as sorted
    duplicate-free successor lists and the predecessor lists derived
    from them, and nothing else per edge: ``transitions`` builds the
    sorted edge list on each read.  Equal labels share one frozenset.
    Every model is built here: the public form range-checks
    ``transitions`` into successor lists and shares equal labels, and
    the package's own builders pass ``_Successors`` instead.
    """

    def __init__(
        self,
        num_states: int,
        transitions: Iterable[tuple[int, int]],
        labels: Sequence[Iterable[str]],
    ):
        if num_states < 0:
            raise ValidationError("num_states must be >= 0")
        if len(labels) != num_states:
            raise ValidationError(
                f"expected {num_states} labels, got {len(labels)}"
            )
        self.num_states = num_states
        if isinstance(transitions, _Successors):
            succ = transitions.lists
            self.labels: tuple[frozenset[str], ...] = tuple(labels)
        else:
            shared: dict[frozenset[str], frozenset[str]] = {}
            self.labels = tuple(shared.setdefault(a, a) for a in map(frozenset, labels))
            succ = [[] for _ in range(num_states)]
            for s, t in transitions:
                if not (0 <= s < num_states and 0 <= t < num_states):
                    raise ValidationError(f"transition ({s}, {t}) out of range")
                succ[s].append(t)
        pred: list[list[int]] = [[] for _ in range(num_states)]
        for s, lst in enumerate(succ):
            if len(lst) > 1:
                lst[:] = sorted(set(lst))
            for t in lst:
                pred[t].append(s)  # in state order, so sorted
        self.successors: list[list[int]] = succ
        self.predecessors: list[list[int]] = pred

    @property
    def transitions(self) -> list[tuple[int, int]]:
        """The edges as ``(source, target)`` pairs, sorted."""
        return [(s, t) for s, lst in enumerate(self.successors) for t in lst]

    def states(self) -> range:
        return range(self.num_states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.labels == other.labels
            and self.successors == other.successors
        )

    def __repr__(self) -> str:
        return (
            f"KripkeStructure(states={self.num_states}, "
            f"transitions={sum(map(len, self.successors))})"
        )


def labeling_partition(k: KripkeStructure) -> list[list[int]]:
    """Partition of the states into maximal same-label classes.

    Classes are ordered by least member, members ascending.
    """
    classes: dict[frozenset[str], list[int]] = {}
    for s in k.states():
        classes.setdefault(k.labels[s], []).append(s)
    return list(classes.values())


def validate_partition(
    k: KripkeStructure, blocks: Sequence[Sequence[int]]
) -> list[int]:
    """Index of each state's block; raises ValidationError unless
    ``blocks`` are non-empty, label-consistent and partition the states.
    """
    block_of = [-1] * k.num_states
    for i, members in enumerate(blocks):
        if not members:
            raise ValidationError(f"block {i} is empty")
        for s in members:
            if not 0 <= s < k.num_states:
                raise ValidationError(f"state {s} out of range in block {i}")
            if block_of[s] != -1:
                raise ValidationError(f"state {s} occurs in two blocks")
            block_of[s] = i
            if k.labels[s] != k.labels[members[0]]:
                raise ValidationError(
                    f"block {i} mixes labels; offending block members "
                    f"{sorted(members)}"
                )
    if -1 in block_of:
        missing = block_of.index(-1)
        raise ValidationError(f"state {missing} belongs to no block")
    return block_of


def validate_preorder(
    size: int, pairs: Iterable[tuple[int, int]]
) -> tuple[list[list[int]], list[int], list[frozenset[int]]]:
    """Classes of a preorder on ``range(size)``.

    Returns the classes (elements with equal up-sets, ordered by least
    member, members ascending), each element's class and each class's
    up-set, a frozenset.  Raises ValidationError for a pair out of range
    and NotAPreorderError, with the lexicographically least witness,
    when the pairs are not reflexive and transitive.  Transitivity is
    checked once per class: the up-sets of the classes that ``up(c)``
    meets must lie inside ``up(c)``.  A ``StatePairs`` on
    ``range(size)`` is read by its rows, which are the up-sets: a
    result's view (one frozenset per block) as well as a parsed
    relation (one per state).  Any other iterable is read pair by pair.
    """
    if type(pairs) is StatePairs and len(pairs.row_of) == size:
        up: Sequence[Set[int]] = [pairs.rows[i] for i in pairs.row_of]
    else:
        up = [set() for _ in range(size)]
        for s, t in pairs:
            if not (0 <= s < size and 0 <= t < size):
                raise ValidationError(f"relation pair ({s}, {t}) out of range")
            up[s].add(t)
    for s in range(size):
        if s not in up[s]:
            raise NotAPreorderError("relation is not reflexive", (s, s))
    class_id: dict[frozenset[int], int] = {}
    class_of = [class_id.setdefault(frozenset(row), len(class_id)) for row in up]
    ups = list(class_id)
    classes: list[list[int]] = [[] for _ in ups]
    for s, c in enumerate(class_of):
        classes[c].append(s)
    for c, above in enumerate(ups):
        met = set(map(class_of.__getitem__, above))
        if not all(ups[d] <= above for d in met):
            beyond = frozenset().union(*(ups[d] for d in met)) - above
            raise NotAPreorderError(
                "relation is not transitive", (classes[c][0], min(beyond))
            )
    return classes, class_of, ups


def quotient(
    k: KripkeStructure, blocks: Sequence[Sequence[int]]
) -> KripkeStructure:
    """Existential lift of ``k`` to ``blocks``, checked by ``validate_partition``.

    Quotient state ids follow the blocks sorted by least member.  There
    is an edge between distinct blocks iff some member steps into the
    other block, and a self-loop iff a block has an internal transition.
    """
    # Numbered by first occurrence in state order: by least member.
    rank: dict[int, int] = {}
    q_of = [rank.setdefault(b, len(rank)) for b in validate_partition(k, blocks)]
    return _quotient(k, [blocks[i] for i in rank], q_of)


def _quotient(
    k: KripkeStructure, blocks: Sequence[Sequence[int]], block_of: Sequence[int]
) -> KripkeStructure:
    """``quotient`` of a partition taken as valid: ``blocks`` sorted by
    least member and their state-to-block map, as in a ``SimulationResult``."""
    succ = [[block_of[t] for s in ms for t in k.successors[s]] for ms in blocks]
    labels = [k.labels[ms[0]] for ms in blocks]
    return KripkeStructure(len(blocks), _Successors(succ), labels)


class RunStats(NamedTuple):
    """Bookkeeping from one refinement run (post-collapse quantities).

    ``targets_visited`` counts the target blocks that refiner search
    scanned, over all its calls: those with a non-empty pending set.
    ``pairs_tested`` counts the pending (hit block, target) pairs whose
    bottom-state condition it evaluated, the hit block not above the
    target.  ``states_scanned`` is the summed length of the source lists
    that the reachability step walked, and ``edges_counted`` the number
    of in-edges read to build counter tables, at init and when a pruning
    rebuilds one.
    """

    iterations: int
    blocks_created: int
    initial_blocks: int
    final_blocks: int
    targets_visited: int
    pairs_tested: int
    states_scanned: int
    edges_counted: int


class SimulationResult:
    """Stuttering simulation preorder over the original states.

    ``blocks`` is the equivalence partition in canonical order (sorted
    by least member); ``preorder`` holds block-index pairs ``(i, j)``
    meaning every state of block ``j`` stuttering-simulates every state
    of block ``i``.  ``preorder`` is reflexive and transitive, and is
    antisymmetric on block indices.  ``stats`` is left out of equality.
    """

    def __init__(
        self,
        blocks: list[list[int]],
        preorder: frozenset[tuple[int, int]],
        block_of: list[int],
        stats: RunStats | None = None,
    ):
        self.blocks = blocks
        self.preorder = preorder
        self.block_of = block_of
        self.stats = stats

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.blocks, self.preorder, self.block_of) == (
            other.blocks,
            other.preorder,
            other.block_of,
        )

    def __repr__(self) -> str:
        return (
            f"SimulationResult(blocks={self.blocks!r}, preorder={self.preorder!r}, "
            f"block_of={self.block_of!r}, stats={self.stats!r})"
        )

    def related(self, x: int, y: int) -> bool:
        """True iff ``y`` stuttering-simulates ``x``, both in ``range(n)``."""
        if not (0 <= x < len(self.block_of) and 0 <= y < len(self.block_of)):
            raise IndexError(f"state pair ({x}, {y}) out of range")
        return (self.block_of[x], self.block_of[y]) in self.preorder

    def state_pairs(self) -> StatePairs:
        """The full state-level preorder as a read-only ``Set`` view of
        pairs that iterates in sorted order, one row per block (see
        ``StatePairs``); call ``set()`` on it for a builtin set."""
        rows: list[list[int]] = [[] for _ in self.blocks]
        for i, j in self.preorder:
            rows[i].extend(self.blocks[j])
        return StatePairs(self.block_of, list(map(frozenset, rows)))

    def strict_block_pairs(self) -> list[tuple[int, int]]:
        """Non-reflexive preorder pairs in lexicographic order."""
        return sorted(p for p in self.preorder if p[0] != p[1])


class StatePairs(Set):
    """A relation on ``range(len(row_of))`` as a read-only set of pairs
    held by rows: state ``x``'s pairs are ``(x, y)`` for ``y`` in the
    frozenset ``rows[row_of[x]]``, so no pair is held as a tuple.  A
    result's view has one row per block (``row_of`` is ``block_of``), a
    parsed relation's one per state.  ``len`` counts the pairs and
    iteration is sorted.  It supports what ``collections.abc.Set``
    gives: membership, ``len``, iteration, equality and the operators,
    which return builtin sets.  It has none of ``set``'s named methods
    (``add``, ``copy``, ``union``, ``issubset``, ...) and is no instance
    of ``set``.  ``validate_preorder`` reads the rows of this exact type.
    """

    __slots__ = ("row_of", "rows")

    def __init__(self, row_of: Sequence[int], rows: Sequence[frozenset[int]]):
        self.row_of = row_of
        self.rows = rows

    def __contains__(self, pair: object) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        x, y = pair
        if not (isinstance(x, int) and isinstance(y, int) and 0 <= x < len(self.row_of)):
            return False
        return y in self.rows[self.row_of[x]]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        rows = list(map(sorted, self.rows))
        return ((x, y) for x, i in enumerate(self.row_of) for y in rows[i])

    def __len__(self) -> int:
        return sum(map(len, map(self.rows.__getitem__, self.row_of)))

    @classmethod
    def _from_iterable(cls, it: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
        return set(it)
