"""Assembly index of strings: exact minimal join-pathway search and a
polynomial-time repeated-substring factoring heuristic.

An object is built from unit symbols by binary concatenation of two
previously available objects (unit symbols are always available, and every
built object may be reused for free).  The assembly index of a string is
the minimum number of join steps needed to build it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class JoinStep:
    """One concatenation: ``result == resolve(left) + resolve(right)``.

    A reference is either a basis symbol (the 1-char string itself) or the
    0-based position of an earlier step in the same pathway.
    """

    left: str | int
    right: str | int
    result: str


@dataclass(frozen=True)
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


def _substring_universe(s):
    """Distinct substrings of ``s`` ordered by (length, lexicographic).

    Returns (ordered list, id map, split table) where splits[i] lists the
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
    return ordered, sid, splits


def _canonical_steps(chosen, ordered, splits, available, basis_ids, final_step_of):
    """Replay a chosen id sequence into JoinSteps using the leftmost valid cut."""
    steps = []
    for cid in chosen:
        for u, v in splits[cid]:
            if available[u] and available[v]:
                left = ordered[u] if u in basis_ids else final_step_of[u]
                right = ordered[v] if v in basis_ids else final_step_of[v]
                steps.append(JoinStep(left=left, right=right, result=ordered[cid]))
                break
        final_step_of[cid] = len(steps) - 1
        available[cid] = True
    return steps


def assembly_index_exact(s: str, limit: int = DEFAULT_EXACT_GUARD):
    """Exact assembly index of ``s`` with a witness pathway.

    Iterative deepening over the pathway length; within one depth the
    search enumerates candidate join results in a canonical order (step
    results strictly increasing by (length, lexicographic)), which is
    complete because any pathway can be reordered that way: each join's
    parts are strictly shorter than its result.  Branches are cut when the
    longest built object cannot reach ``len(s)`` by doubling in the
    remaining steps.

    Returns ``(index, AssemblyPathway)``.  The witness is the
    lexicographically smallest canonically ordered minimal pathway.
    """
    if not s:
        raise ValueError("empty input")
    if len(s) > limit:
        raise ValueError(
            f"length {len(s)} exceeds exact-search guard {limit}; use split heuristic"
        )
    basis = frozenset(s)
    if len(s) == 1:
        return 0, AssemblyPathway(basis=basis, steps=(), target=s)

    n = len(s)
    ordered, sid, splits = _substring_universe(s)
    total = len(ordered)
    target_id = sid[s]
    basis_ids = {sid[c] for c in basis}
    # first candidate id of each length (ids are length-sorted)
    first_of_len = {}
    for k, w in enumerate(ordered):
        first_of_len.setdefault(len(w), k)

    def min_id_for(min_len):
        for length in range(min_len, n + 1):
            if length in first_of_len:
                return first_of_len[length]
        return total

    available = [False] * total
    for b in basis_ids:
        available[b] = True

    def joinable(cid):
        for u, v in splits[cid]:
            if available[u] and available[v]:
                return True
        return False

    chosen = []

    def dfs(start, remaining):
        if remaining == 1:
            if joinable(target_id):
                chosen.append(target_id)
                return True
            return False
        # the longest object after this step must still reach n by doubling
        need = (n + (1 << (remaining - 1)) - 1) >> (remaining - 1)
        lo = max(start, min_id_for(max(2, need)))
        for cid in range(lo, target_id):
            if not joinable(cid):
                continue
            available[cid] = True
            chosen.append(cid)
            if dfs(cid + 1, remaining - 1):
                return True
            chosen.pop()
            available[cid] = False
        return False

    depth = (n - 1).bit_length()
    while True:
        if dfs(0, depth):
            break
        depth += 1

    replay_avail = [False] * total
    for b in basis_ids:
        replay_avail[b] = True
    steps = _canonical_steps(chosen, ordered, splits, replay_avail, basis_ids, {})
    pathway = AssemblyPathway(basis=basis, steps=tuple(steps), target=s)
    return depth, pathway


def _expand(seq, defs):
    out = []
    for tok in seq:
        if isinstance(tok, str):
            out.append(tok)
        else:
            out.append(_expand(defs[tok], defs))
    return "".join(out)


def _longest_repeat(seqs):
    """Longest window (>= 2 tokens) with >= 2 non-overlapping occurrences.

    Returns (window tuple, length) or (None, 0).  Monotone in the window
    length, so the maximal length is found by bisection; the reported
    window is the one whose first occurrence is earliest by (seq, pos).
    """

    def best_at(length):
        occ = {}
        for si, seq in enumerate(seqs):
            for pos in range(len(seq) - length + 1):
                w = tuple(seq[pos : pos + length])
                occ.setdefault(w, []).append((si, pos))
        winner = None
        for w, places in occ.items():
            count, last_seq, last_end = 0, -1, -1
            for si, pos in places:
                if si != last_seq or pos >= last_end:
                    count += 1
                    last_seq, last_end = si, pos + length
            if count >= 2 and (winner is None or places[0] < winner[1]):
                winner = (w, places[0])
        return winner

    hi = max((len(q) for q in seqs), default=0)
    if hi < 2 or best_at(2) is None:
        return None, 0
    lo = 2  # invariant: feasible at lo, infeasible above hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if best_at(mid) is not None:
            lo = mid
        else:
            hi = mid - 1
    return best_at(lo)[0], lo


def _replace_window(seq, window, ref):
    L = len(window)
    out, i = [], 0
    w = list(window)
    while i <= len(seq) - L:
        if seq[i : i + L] == w:
            out.append(ref)
            i += L
        else:
            out.append(seq[i])
            i += 1
    out.extend(seq[i:])
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
    basis = frozenset(s)
    if len(s) == 1:
        return 0, AssemblyPathway(basis=basis, steps=(), target=s)

    seqs = [list(s)]  # seqs[0] is the target; seqs[k] defines object k
    while True:
        window, _ = _longest_repeat(seqs)
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
            obj = len(seqs) - 1
        for k in range(len(seqs)):
            if k != obj:
                seqs[k] = _replace_window(seqs[k], window, obj)

    upper = sum(len(q) - 1 for q in seqs)

    # build objects shortest-first (definitions only reference strictly
    # shorter objects), folding each token list left to right
    expansion = {k: _expand(seqs[k], {i: seqs[i] for i in range(len(seqs))}) for k in range(len(seqs))}
    order = sorted(range(1, len(seqs)), key=lambda k: (len(expansion[k]), expansion[k]))
    order.append(0)
    steps = []
    final_step_of = {}

    def ref_of(tok):
        if isinstance(tok, str):
            return tok
        return final_step_of[tok]

    def text_of(tok):
        if isinstance(tok, str):
            return tok
        return expansion[tok]

    for k in order:
        seq = seqs[k]
        acc_ref, acc_text = ref_of(seq[0]), text_of(seq[0])
        for tok in seq[1:]:
            acc_text = acc_text + text_of(tok)
            steps.append(JoinStep(left=acc_ref, right=ref_of(tok), result=acc_text))
            acc_ref = len(steps) - 1
        final_step_of[k] = acc_ref

    pathway = AssemblyPathway(basis=basis, steps=tuple(steps), target=s)
    return upper, pathway


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
