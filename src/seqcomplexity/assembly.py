"""Assembly index of strings: exact minimal join-pathway search and a
polynomial-time repeated-substring factoring heuristic.

An object is built from unit symbols by binary concatenation of two
previously available objects (unit symbols are always available, and every
built object may be reused for free).  The assembly index of a string is
the minimum number of join steps needed to build it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heapreplace
from itertools import accumulate, count, filterfalse
from operator import ne

from ._util import dot_escape, is_int

__all__ = [
    "JoinStep",
    "AssemblyPathway",
    "assembly_index_exact",
    "assembly_index_split",
    "split_upper_bound",
    "verify_pathway",
    "assembly_tree_dot",
    "DOT_LABEL_CAP",
]

_MAX_CUTS = 10**5  # windows and cuts the exact search's set-up may count (about 1.5 us each)
_MAX_WORK = 10**8  # search work units (5-20 ns each); a call costs the substrings plus two users lists
DOT_LABEL_CAP = 32  # longest step text a DOT label spells out in full


@dataclass(frozen=True, slots=True)
class JoinStep:
    """One concatenation: ``result == resolve(left) + resolve(right)``.

    A reference is either a basis symbol (the 1-char string itself) or the
    0-based position of an earlier step in the same pathway.  The result is
    the span ``target[start:stop]`` of the pathway's target, which every
    step shares, so a pathway holds one copy of the text.
    """

    left: str | int
    right: str | int
    start: int
    stop: int
    target: str = field(repr=False)

    @property
    def result(self) -> str:
        return self.target[self.start : self.stop]


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

    Malformed references or spans, non-matching concatenations, or a wrong
    final result all yield False rather than raising.
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
                elif not (is_int(ref) and 0 <= ref < i):
                    return False
            if step.target != target or not (
                is_int(step.start) and is_int(step.stop) and 0 <= step.start < step.stop <= len(target)
            ):
                return False
            if step.result != _resolve(step.left, p.steps) + _resolve(step.right, p.steps):
                return False
        return p.steps[-1].result == target
    except (AttributeError, TypeError, IndexError):
        return False


def _fold_pathway(s, defs):
    """Pathway for ``s`` from ``(key, text, tokens)`` definitions in build
    order.

    A token is a basis symbol or the key of an earlier definition (no key
    equals a basis symbol); each definition is joined left to right into
    its ``text``, a substring of ``s``, and the last one must spell ``s``.
    A step refers to a basis symbol by the symbol itself and to a built
    object by the index of its last step.  Each join of a definition spells
    a prefix of its text, so a step is a span from the text's first start
    in ``s``.
    """
    steps, built = [], {}  # key -> (reference, length) of a built object
    for key, text, tokens in defs:
        ref, length = built.get(tokens[0], (tokens[0], 1))
        start = s.find(text)
        stop = start + length
        for tok in tokens[1:]:
            right, length = built.get(tok, (tok, 1))
            stop += length
            steps.append(JoinStep(ref, right, start, stop, s))
            ref = len(steps) - 1
        built[key] = ref, len(text)
    return AssemblyPathway(basis=frozenset(s), steps=tuple(steps), target=s)


def _substring_universe(s):
    """Distinct substrings of ``s`` ordered by (length, lexicographic).

    Returns (ordered list, split table) where splits[i] lists the
    (left_id, right_id) cut pairs of substring i.  Every cut of a substring
    of ``s`` is itself a substring of ``s``, so the table is closed.  The
    list grows one length at a time, and refuses before a length (n + 1 is
    empty: the table) once ``n(n + 1) / 2`` windows and the cuts listed
    pass ``_MAX_CUTS``.
    """
    n = len(s)
    ordered, cuts = [], n * (n + 1) // 2
    for length in range(1, n + 2):
        if cuts > _MAX_CUTS:
            raise ValueError(f"exact search set-up exceeds its cap of {_MAX_CUTS} cuts; use the split heuristic")
        level = sorted({s[i : i + length] for i in range(n - length + 1)})
        ordered += level
        cuts += (length - 1) * len(level)
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


def assembly_index_exact(s: str):
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
    Raises ``ValueError`` past ``_MAX_CUTS`` or ``_MAX_WORK``, at any length.
    """
    if not s:
        raise ValueError("empty input")
    n = len(s)
    if n <= 2:
        return n - 1, _fold_pathway(s, [(s, s, tuple(s))] if n == 2 else ())

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
    calls = _MAX_WORK // (len(ordered) + 2 * max(map(len, users)))

    def dfs(start, remaining):
        nonlocal calls
        calls -= 1
        if calls < 0:
            raise ValueError(f"exact search exceeds its cap of {_MAX_WORK} work units; use the split heuristic")
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
        defs.append((ordered[cid], ordered[cid], (ordered[u], ordered[v])))
    return depth, _fold_pathway(s, defs)


# characters of each suffix compared by the first sort of _suffix_array
_SORT_PREFIX = 256


def _suffix_array(t):
    """``sa, rank``: the starts of ``t``'s suffixes in string order, and
    each start's place in ``sa``.

    The first sort compares each suffix's first ``_SORT_PREFIX`` (K)
    characters, as one C-level sort over slices that hold K·n characters
    while it runs; a text of at most K characters is sorted there.  Where
    keys tie, equal keys get equal ranks and the next sort compares
    ``(rank[i], rank[i + k])``, twice the characters, until no two tie.
    """
    n, k = len(t), _SORT_PREFIX
    keys = [t[i : i + k] for i in range(n)]
    sa = sorted(range(n), key=keys.__getitem__)
    while k < n:  # suffixes longer than k may tie
        ordered = list(map(keys.__getitem__, sa))
        rank = [0] * n
        for p, r in zip(sa, accumulate(map(ne, ordered[1:], ordered), initial=0)):
            rank[p] = r
        if rank[sa[-1]] == n - 1:
            break
        keys = list(zip(rank, rank[k:] + [-1] * k))
        k *= 2
        sa = sorted(range(n), key=keys.__getitem__)
    rank = [0] * n
    for r, p in enumerate(sa):
        rank[p] = r
    return sa, rank


def _repeat_spans(t, sep):
    """``lo, hi, L``: ``p`` is the first start of a window of ``t`` that
    holds no ``sep`` and occurs twice without overlap (last start at least
    the length past the first) for the lengths ``lo[p]`` to ``hi[p]`` (a
    range: a window's prefixes repeat wherever it does, and its extensions
    occur no earlier), and no repeat is longer than ``L``.  ``t`` ends
    with ``sep``.

    The windows come from the suffix array (``_suffix_array``), the
    heights of neighbouring suffixes in it and one bottom-up pass over its
    intervals of suffixes that share a prefix (Abouelhoda, Kurtz and
    Ohlebusch, JDA 2004).  A height is the length of the common prefix up
    to the first ``sep``, from Kasai's loop (Kasai et al., CPM 2001); the
    loop cannot run past the end, because ``t`` ends with ``sep``.

    The occurrences of a ``sep``-free window are contiguous in string
    order, so a window of length ``l`` has exactly the occurrences of the
    interval whose depth (least inner height) is at least ``l`` and whose
    parent's depth is below ``l``.  An interval of depth ``d`` with parent
    depth ``d'``, first start ``a`` and last start ``b`` therefore gives
    ``a`` the lengths ``max(2, d' + 1)`` to ``min(d, b - a)``, and the
    range argument above carries over as it stands.  The intervals whose
    first start is ``a`` all hold the suffix at ``a``, so they nest and
    are popped deepest first: the first to give ``a`` lengths sets
    ``hi[a]``, and the last sets ``lo[a]``.  Heights below 2 count as 0,
    which moves no length of 2 or more and spares the root most leaves.

    Time is O(n log n) for each sort, of which there are at most
    1 + log2(n / ``_SORT_PREFIX``), and O(n) for the rest; memory is
    O(n) besides the first sort's keys.
    """
    n = len(t)
    sa, rank = _suffix_array(t)
    height = [0] * n  # height[r]: of sa[r] and sa[r + 1], 0 if below 2
    h = 0
    for i, r in enumerate(rank):
        if r + 1 < n:
            j = sa[r + 1]
            while t[i + h] == t[j + h] != sep:
                h += 1
            if h > 1:
                height[r] = h
            if h:
                h -= 1
        else:
            h = 0
    lo, hi = {}, {}
    top = [0, 0, 0]  # [depth, first start, last start]; the root's starts go unused
    stack = [top]
    for h, prev, p in zip(height, sa, sa[1:] + [0]):
        a = b = prev  # starts of the left child of an interval pushed here: prev, or the last popped
        d = top[0]
        while h < d:
            _, a, b = stack.pop()
            top = stack[-1]
            up = top[0] if top[0] > h else h  # the popped interval's parent depth
            first, last = up + 1 if up else 2, b - a if b - a < d else d
            if first <= last:
                lo[a] = first
                hi.setdefault(a, last)
            d = top[0]
            if h <= d and d:  # the parent is on the stack, else it is pushed below
                if a < top[1]:
                    top[1] = a
                if b > top[2]:
                    top[2] = b
        if h > d:
            top = [h, a if a < p else p, b if b > p else p]
            stack.append(top)
        elif h:
            if p < top[1]:
                top[1] = p
            elif p > top[2]:
                top[2] = p
    return lo, hi, max(hi.values(), default=1)


def _factor_repeats(s):
    """The factoring behind ``assembly_index_split``: ``seqs, spelled,
    keys, sep``.  ``seqs`` is the target, then each factored object's
    definition, as tokens: a basis symbol, or the key of a factored
    object.  ``keys[i]`` is the key of the object that ``seqs[i + 1]``
    defines and ``spelled.split(sep)[i + 1]`` spells out.

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
    A round that tests more than ``len(t)`` windows regroups ``t``; this
    bounds the windows a round tests, not the characters each ``find`` scans.
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

    return t.replace(pad, "").split(sep)[:-1], spelled, keys, sep


def split_upper_bound(s: str) -> int:
    """The split heuristic's upper bound on the assembly index of ``s``,
    ``assembly_index_split(s)[0]``, without building the witness: one join
    per remaining concatenation of the target and each factored object."""
    return sum(len(q) - 1 for q in _factor_repeats(s)[0])


def assembly_index_split(s: str):
    """Polynomial-time upper bound on the assembly index, with witness.

    Repeatedly factors out the longest window of two or more tokens that
    occurs twice without overlap in the target and the factored objects
    (the earliest by first occurrence, replaced greedily left to right),
    then counts one join per remaining concatenation.

    Returns ``(upper_bound, AssemblyPathway)``; ``split_upper_bound``
    returns the same bound alone.
    """
    seqs, spelled, keys, sep = _factor_repeats(s)
    # objects shortest first (a definition uses only shorter ones), the target last
    defs = sorted(zip(keys, spelled.split(sep)[1:-1], seqs[1:]), key=lambda d: (len(d[1]), d[1]))
    pathway = _fold_pathway(s, defs + [(sep, s, seqs[0])])
    return pathway.index, pathway


def assembly_tree_dot(p: AssemblyPathway) -> str:
    """Render a pathway as a DOT digraph.

    One node per basis symbol used and per step result; each step
    contributes a left and a right edge into its result node.  A step is
    labelled by its text, or, when that is longer than ``DOT_LABEL_CAP``,
    by the first ``DOT_LABEL_CAP`` characters, an ellipsis and its span
    ``start:stop`` of the target, so the DOT grows linearly with the steps.
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
        if st.stop - st.start <= DOT_LABEL_CAP:
            label = dot_escape(st.result)
        else:
            label = f"{dot_escape(st.target[st.start : st.start + DOT_LABEL_CAP])}… {st.start}:{st.stop}"
        lines.append(f'  s{i} [label="{label}" shape=box];')
    for i, st in enumerate(p.steps):
        for ref, tag in ((st.left, "L"), (st.right, "R")):
            src = basis_node[ref] if isinstance(ref, str) else f"s{ref}"
            lines.append(f'  {src} -> s{i} [label="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
