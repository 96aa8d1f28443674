"""Assembly index of strings: exact minimal join-pathway search and a
polynomial-time repeated-substring factoring heuristic.

An object is built from unit symbols by binary concatenation of two
previously available objects (unit symbols are always available, and every
built object may be reused for free).  The assembly index of a string is
the minimum number of join steps needed to build it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heapreplace
from itertools import count, filterfalse

from ._util import dot_escape

__all__ = [
    "JoinStep",
    "AssemblyPathway",
    "assembly_index_exact",
    "assembly_index_split",
    "verify_pathway",
    "assembly_tree_dot",
    "DEFAULT_EXACT_GUARD",
]

DEFAULT_EXACT_GUARD = 25


@dataclass(frozen=True, slots=True)
class JoinStep:
    """One concatenation: ``result == resolve(left) + resolve(right)``.

    A reference is either a basis symbol (the 1-char string itself) or the
    0-based position of an earlier step in the same pathway.
    """

    left: str | int
    right: str | int
    result: str


@dataclass(frozen=True, slots=True)
class AssemblyPathway:
    """An ordered witness of join steps building ``target`` from ``basis``.

    The assembly index reported for the pathway is ``len(steps)``; a
    single-symbol target is witnessed by an empty step list.
    """

    basis: frozenset[str]
    steps: tuple[JoinStep, ...]
    target: str

    @property
    def index(self) -> int:
        return len(self.steps)


def _resolve(ref, steps):
    if isinstance(ref, str):
        return ref
    return steps[ref].result


def verify_pathway(p: AssemblyPathway, target: str) -> bool:
    """Certificate check: True iff ``p`` is a well-formed pathway for ``target``.

    Malformed references, non-matching concatenations, or a wrong final
    result all yield False rather than raising.
    """
    try:
        if p.target != target or not target:
            return False
        if not p.basis or any(len(b) != 1 for b in p.basis):
            return False
        if not p.steps:
            return len(target) == 1 and target in p.basis
        for i, step in enumerate(p.steps):
            for ref in (step.left, step.right):
                if isinstance(ref, str):
                    if ref not in p.basis:
                        return False
                elif isinstance(ref, int) and not isinstance(ref, bool):
                    if not 0 <= ref < i:
                        return False
                else:
                    return False
            if step.result != _resolve(step.left, p.steps) + _resolve(step.right, p.steps):
                return False
        return p.steps[-1].result == target
    except (AttributeError, TypeError, IndexError):
        return False


def _fold_pathway(s, defs):
    """Pathway for ``s`` from ``(key, tokens)`` definitions in build order.

    A token is a basis symbol or the key of an earlier definition (no key
    equals a basis symbol); each definition is joined left to right, and
    the last one must spell ``s``.  A step refers to a basis symbol by the
    symbol itself and to a built object by the index of its last step.
    """
    steps, built = [], {}  # key -> (reference, text) of a built object
    for key, tokens in defs:
        ref, text = built.get(tokens[0], (tokens[0], tokens[0]))
        for tok in tokens[1:]:
            right, part = built.get(tok, (tok, tok))
            text += part
            steps.append(JoinStep(left=ref, right=right, result=text))
            ref = len(steps) - 1
        built[key] = ref, text
    return AssemblyPathway(basis=frozenset(s), steps=tuple(steps), target=s)


def _substring_universe(s):
    """Distinct substrings of ``s`` ordered by (length, lexicographic).

    Returns (ordered list, split table) where splits[i] lists the
    (left_id, right_id) cut pairs of substring i.  Every cut of a substring
    of ``s`` is itself a substring of ``s``, so the table is closed.
    """
    n = len(s)
    subs = {s[i:j] for i in range(n) for j in range(i + 1, n + 1)}
    ordered = sorted(subs, key=lambda w: (len(w), w))
    sid = {w: k for k, w in enumerate(ordered)}
    splits = [[(sid[w[:c]], sid[w[c:]]) for c in range(1, len(w))] for w in ordered]
    return ordered, splits


def _lz77_phrases(s):
    """Phrases of the greedy LZ77 parse of ``s`` without self-reference.

    Each phrase is the longest prefix of the unparsed rest that occurs in
    the parsed part, or one symbol when none does.
    """
    phrases = i = 0
    while i < len(s):
        j = i + 1
        while j <= len(s) and s[i:j] in s[:i]:
            j += 1
        i = max(j - 1, i + 1)
        phrases += 1
    return phrases


def assembly_index_exact(s: str, limit: int = DEFAULT_EXACT_GUARD):
    """Exact assembly index of ``s`` with a witness pathway.

    Iterative deepening over the pathway length; within one depth the
    search enumerates candidate join results in a canonical order (step
    results strictly increasing by (length, lexicographic)), which is
    complete because any pathway can be reordered that way: each join's
    parts are strictly shorter than its result.

    Deepening starts at ``max(ceil(log2 n), z - sigma)``: a pathway with
    ``k`` joins over ``sigma`` symbols is a straight-line program with
    ``k + sigma`` rules, and the ``z`` phrases of the LZ77 parse without
    self-reference are at most that many (Rytter, TCS 2003).  For every
    substring the search keeps the number of its cuts whose two parts are
    built, and updates only the counts of the substrings using an object
    when that object is built or dropped.  With two joins left the target
    is not joinable (a smaller depth or the lower bound rules out a shorter
    pathway), so the next object must complete a cut of the target: the
    search takes the first such object instead of trying every candidate.

    Returns ``(index, AssemblyPathway)``.  The witness is the
    lexicographically smallest canonically ordered minimal pathway.
    """
    if not s:
        raise ValueError("empty input")
    if len(s) > limit:
        raise ValueError(
            f"length {len(s)} exceeds exact-search guard {limit}; use split heuristic"
        )
    n = len(s)
    if n <= 2:
        return n - 1, _fold_pathway(s, [(s, tuple(s))] if n == 2 else ())

    ordered, splits = _substring_universe(s)
    target_id = len(ordered) - 1
    available = [len(w) == 1 for w in ordered]
    # cuts[c] counts the cuts of c whose parts are both built; users[x]
    # lists (c, other part) for every cut of c that has x as a part, once
    # for a cut (x, x)
    cuts = [0] * len(ordered)
    users = [[] for _ in ordered]
    for c, pairs in enumerate(splits):
        for u, v in pairs:
            if available[u] and available[v]:
                cuts[c] += 1
            users[u].append((c, v))
            if v != u:
                users[v].append((c, u))

    def set_available(x, built):
        step = 1 if built else -1
        available[x] = True  # a cut (x, x) finds its other part built
        for c, other in users[x]:
            if available[other]:
                cuts[c] += step
        available[x] = built

    chosen = []

    def dfs(start, remaining):
        if remaining == 2:
            # no pathway is one join shorter, so the target is not joinable and
            # the last object must complete one of its cuts; ids from start on
            # are not built yet, so this is the first one the loop below finds
            last = target_id
            for u, v in splits[target_id]:
                if available[u]:
                    x = v  # not built, or the target would be joinable
                elif available[v] or u == v:
                    x = u
                else:
                    continue
                if start <= x < last and cuts[x]:
                    last = x
            if last == target_id:
                return False
            available[last] = True
            chosen.extend((last, target_id))
            return True
        for cid in range(start, target_id):
            if not cuts[cid]:
                continue
            set_available(cid, True)
            chosen.append(cid)
            if dfs(cid + 1, remaining - 1):
                return True
            chosen.pop()
            set_available(cid, False)
        return False

    depth = max((n - 1).bit_length(), _lz77_phrases(s) - len(set(s)))
    while not dfs(0, depth):
        depth += 1
    # dfs holds itself through its closure; clearing it frees the search
    # state now rather than at the next full garbage collection
    del dfs

    # ``available`` now marks the basis and every chosen object, and the
    # parts of a chosen object are shorter, so chosen before it: each join
    # uses its leftmost cut whose parts are already built
    defs = []
    for cid in chosen:
        u, v = next((u, v) for u, v in splits[cid] if available[u] and available[v])
        defs.append((ordered[cid], (ordered[u], ordered[v])))
    return depth, _fold_pathway(s, defs)


def _repeat_spans(t, sep):
    """``lo, hi, L``: ``p`` is the first start of a window of ``t`` that
    holds no ``sep`` and occurs twice without overlap (last start at least
    the length past the first) for the lengths ``lo[p]`` to ``hi[p]`` (a
    range: a window's prefixes repeat wherever it does, and its extensions
    occur no earlier), and no repeat is longer than ``L``.  Each pass
    splits the occurrences of every repeat by the next character.
    """
    by_pair = {}
    for p in range(len(t) - 1):
        pair = t[p : p + 2]
        if pair in by_pair:
            by_pair[pair].append(p)
        else:
            by_pair[pair] = [p]
    groups = [g for pair, g in by_pair.items() if g[-1] - g[0] >= 2 and sep not in pair]
    lo, hi, length = {}, {}, 2
    while groups:
        refined = []
        for group in groups:
            lo.setdefault(group[0], length)
            hi[group[0]] = length
            by_next = {}
            for p in group:
                c = t[p + length]
                if c in by_next:
                    by_next[c].append(p)
                else:
                    by_next[c] = [p]
            for c, g in by_next.items():
                if g[-1] - g[0] > length and c != sep:
                    refined.append(g)
        groups = refined
        length += 1
    return lo, hi, length - 1


def assembly_index_split(s: str):
    """Polynomial-time upper bound on the assembly index, with witness.

    Repeatedly factors out the longest window of two or more tokens that
    occurs twice without overlap in the target and the factored objects
    (the earliest by first occurrence, replaced greedily left to right),
    then counts one join per remaining concatenation.

    All sequences live in one string ``t``, each followed by ``sep``.  A
    basis symbol is itself; a factored object is a fresh character, padded
    with ``pad`` to the length it replaces so positions never move, and
    ``spelled`` is ``t`` spelled out.  The repeats are grouped once
    (``_repeat_spans``); those of the current length form a heap of
    positions, each a lower bound on the first occurrence of the window
    spelled there.  A round pops the windows that no longer repeat, moves
    those whose first occurrence moved, and factors out the first that
    did neither; an empty heap means the next length down.

    This is exact because a round creates no repeat.  Say it replaces
    ``W``, the longest repeat, of length ``L``, by a fresh ``X``.  A window
    of ``l >= 2`` tokens holding ``X`` with two non-overlapping occurrences
    would, with ``X`` spelled out, be a non-overlapping repeat of the old
    text of length ``l - 1 + L > L``.  A window without ``X`` maps to the
    old text as it is (in the appended definition of ``X``, to a replaced
    occurrence of ``W``).  So no repeat ever holds a factored object, the
    repeats of each length only shrink, and their occurrences only vanish
    or appear in appended definitions: first occurrences only move right.
    Nor is ``W`` ever an object's definition, so each round makes a new
    object: such a definition holds no factored object, so it is still the
    winner that made it, which greedy replacement left nowhere else; later
    rounds only remove its occurrences, and a later definition is no
    longer, so holds it only by being it, which needs it to repeat first.
    A round that tests more than ``len(t)`` windows regroups ``t``, which
    bounds the cost of dropping many lengths.

    Returns ``(upper_bound, AssemblyPathway)``.
    """
    if not s:
        raise ValueError("empty input")
    fresh = filterfalse(set(s).__contains__, map(chr, count()))  # characters not in s
    sep, pad = next(fresh), next(fresh)
    t = spelled = s + sep
    lo, hi, length = _repeat_spans(t, sep)
    heap, keys = None, []
    while True:
        best, tested = None, 0
        while length > 1 and best is None:
            if heap is None:  # a sorted list is a heap
                heap = sorted(p for p in hi if lo[p] <= length <= hi[p])
            while heap:
                bound = heap[0]
                w = spelled[bound : bound + length]
                first = t.find(w, bound)
                tested += 1
                if first > bound:
                    heapreplace(heap, first)
                elif first == bound and t.find(w, first + length) >= 0:
                    best = w
                    break
                else:
                    heappop(heap)
            if best is None:
                length, heap = length - 1, None
                if tested > len(t):
                    lo, hi, length = _repeat_spans(t.replace(pad, sep), sep)
        if best is None:
            break
        keys.append(next(fresh))
        t = t.replace(best, keys[-1] + pad * (length - 1)) + best + sep
        spelled += best + sep

    seqs = t.replace(pad, "").split(sep)[:-1]  # the target, then each definition
    upper = sum(len(q) - 1 for q in seqs)
    # objects shortest first (a definition uses only shorter ones), the target last
    order = sorted(zip(spelled.split(sep)[1:-1], keys, seqs[1:]), key=lambda d: (len(d[0]), d[0]))
    return upper, _fold_pathway(s, [(key, q) for _, key, q in order] + [(sep, seqs[0])])


def assembly_tree_dot(p: AssemblyPathway) -> str:
    """Render a pathway as a DOT digraph.

    One node per basis symbol used and per step result; each step
    contributes a left and a right edge into its result node.
    """
    if not verify_pathway(p, p.target):
        raise ValueError("invalid pathway")
    used_basis = sorted(
        {r for st in p.steps for r in (st.left, st.right) if isinstance(r, str)}
    )
    if not p.steps:
        used_basis = [p.target]
    lines = ["digraph assembly {"]
    basis_node = {b: f"b{k}" for k, b in enumerate(used_basis)}
    for b in used_basis:
        lines.append(f'  {basis_node[b]} [label="{dot_escape(b)}" shape=circle];')
    for i, st in enumerate(p.steps):
        lines.append(f'  s{i} [label="{dot_escape(st.result)}" shape=box];')
    for i, st in enumerate(p.steps):
        for ref, tag in ((st.left, "L"), (st.right, "R")):
            src = basis_node[ref] if isinstance(ref, str) else f"s{ref}"
            lines.append(f'  {src} -> s{i} [label="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
