"""Assembly index of strings: exact minimal join-pathway search and a
polynomial-time repeated-substring factoring heuristic.

An object is built from unit symbols by binary concatenation of two
previously available objects (unit symbols are always available, and every
built object may be reused for free).  The assembly index of a string is
the minimum number of join steps needed to build it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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
    subs = set()
    for i in range(n):
        for j in range(i + 1, n + 1):
            subs.add(s[i:j])
    ordered = sorted(subs, key=lambda w: (len(w), w))
    sid = {w: k for k, w in enumerate(ordered)}
    splits = []
    for w in ordered:
        splits.append([(sid[w[:c]], sid[w[c:]]) for c in range(1, len(w))])
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
    parts are strictly shorter than its result.  Branches are cut when the
    longest built object cannot reach ``len(s)`` by doubling in the
    remaining steps.

    Deepening starts at ``max(ceil(log2 n), z - sigma)``: a pathway with
    ``k`` joins over ``sigma`` symbols is a straight-line program with
    ``k + sigma`` rules, and the ``z`` phrases of the LZ77 parse without
    self-reference are at most that many (Rytter, TCS 2003).  For every
    substring the search keeps the number of its cuts whose two parts are
    built, and updates only the counts of the substrings using an object
    when that object is built or dropped.  With two joins left and the
    target not yet joinable, the next object must complete a cut of the
    target, so the search takes the first such object instead of trying
    every candidate.

    Returns ``(index, AssemblyPathway)``.  The witness is the
    lexicographically smallest canonically ordered minimal pathway.
    """
    if not s:
        raise ValueError("empty input")
    if len(s) > limit:
        raise ValueError(
            f"length {len(s)} exceeds exact-search guard {limit}; use split heuristic"
        )
    if len(s) == 1:
        return 0, _fold_pathway(s, ())

    n = len(s)
    ordered, splits = _substring_universe(s)
    target_id = len(ordered) - 1
    # ids are length-sorted and every length 1..n occurs, so first_of_len
    # has every length the doubling cut below asks for
    available = [len(w) == 1 for w in ordered]
    first_of_len = {}
    for k, w in enumerate(ordered):
        first_of_len.setdefault(len(w), k)
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
        if remaining == 1:
            if cuts[target_id]:
                chosen.append(target_id)
                return True
            return False
        # the longest object after this step must still reach n by doubling
        need = (n + (1 << (remaining - 1)) - 1) >> (remaining - 1)
        lo = max(start, first_of_len[max(2, need)])
        if remaining == 2 and not cuts[target_id]:
            # the last object must complete a cut of the target; ids from lo
            # on are not built yet, so this is the first one the loop below
            # would find
            last = target_id
            for u, v in splits[target_id]:
                if available[u]:
                    x = v  # not built, or the target would be joinable
                elif available[v] or u == v:
                    x = u
                else:
                    continue
                if lo <= x < last and cuts[x]:
                    last = x
            if last == target_id:
                return False
            available[last] = True
            chosen.extend((last, target_id))
            return True
        for cid in range(lo, target_id):
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
    while True:
        if dfs(0, depth):
            break
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


def _longest_repeat(seqs):
    """Longest window (>= 2 tokens) with >= 2 non-overlapping occurrences.

    Returns ``(window tuple, places)``, where ``places`` lists every
    ``(seq, pos)`` occurrence of the window in ascending order, or
    ``(None, [])`` when no window repeats.  Among the longest windows the
    one whose first occurrence is earliest by (seq, pos) wins.

    The sequences are joined with a fresh sentinel after each one, so no
    window spans two of them and a window has two non-overlapping
    occurrences exactly when its last start is at least its length past
    its first.  The occurrences are grouped by their 2-token window, and
    each pass splits every group by the token after its window and keeps
    the groups that still repeat.  Repeating is monotone in the length
    (a window's prefixes repeat wherever it does), so the groups left by
    the last pass are every longest repeat.  A pass costs the number of
    occurrences still grouped, so one call costs O(n * L) for the repeat
    length L it finds.
    """
    joined, starts = [], []
    for seq in seqs:
        starts.append(len(joined))
        joined.extend(seq)
        joined.append(object())  # equal to no token, unique per sequence
    by_pair = {}
    for p, pair in enumerate(zip(joined, joined[1:])):
        if pair in by_pair:
            by_pair[pair].append(p)
        else:
            by_pair[pair] = [p]
    groups = [g for g in by_pair.values() if g[-1] - g[0] >= 2]
    if not groups:
        return None, []
    length = 2
    while True:
        refined = []
        for group in groups:
            by_next = {}
            for p in group:
                tok = joined[p + length]
                if tok in by_next:
                    by_next[tok].append(p)
                else:
                    by_next[tok] = [p]
            for g in by_next.values():
                if g[-1] - g[0] > length:
                    refined.append(g)
        if not refined:
            break
        groups = refined
        length += 1
    winner = min(groups, key=itemgetter(0))
    first = winner[0]
    places = []
    for p in winner:
        k = bisect_right(starts, p) - 1
        places.append((k, p - starts[k]))
    return tuple(joined[first : first + length]), places


def _replace_window(seq, positions, length, ref):
    """Replace the occurrences at sorted ``positions`` greedily left to
    right, skipping any that overlaps the previous replacement."""
    out, end = [], 0
    for pos in positions:
        if pos >= end:
            out.extend(seq[end:pos])
            out.append(ref)
            end = pos + length
    out.extend(seq[end:])
    return out


def assembly_index_split(s: str):
    """Polynomial-time upper bound on the assembly index, with witness.

    Repeatedly factors out the longest token window occurring at least
    twice without overlap across the target and all factored objects
    (replacement is greedy left to right), then counts one join per
    remaining concatenation, each distinct factored object built once.

    Returns ``(upper_bound, AssemblyPathway)``.
    """
    if not s:
        raise ValueError("empty input")
    seqs = [list(s)]  # seqs[0] is the target; seqs[k] defines object k
    expansion = [s]  # the string each sequence spells; fixed once created
    while True:
        window, places = _longest_repeat(seqs)
        if window is None:
            break
        w = list(window)
        obj = None
        for k in range(1, len(seqs)):
            if seqs[k] == w:
                obj = k
                break
        if obj is None:
            seqs.append(w)
            expansion.append("".join(tok if isinstance(tok, str) else expansion[tok] for tok in w))
            obj = len(seqs) - 1
        for k, group in groupby(places, key=itemgetter(0)):
            if k != obj:
                seqs[k] = _replace_window(seqs[k], [pos for _, pos in group], len(w), obj)

    upper = sum(len(q) - 1 for q in seqs)

    # build objects shortest-first (definitions only reference strictly
    # shorter objects), the target last
    order = sorted(range(1, len(seqs)), key=lambda k: (len(expansion[k]), expansion[k]))
    order.append(0)
    return upper, _fold_pathway(s, [(k, seqs[k]) for k in order])


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
