"""Lyndon words, Shirshov decompositions and closures, and the orders on
words and super words.

Words are tuples of 1-based generator indices; super words are tuples of
Lyndon words.  Python's tuple comparison is exactly the lexicographic order
with the prefix rule, so plain comparisons are used throughout.
"""

from __future__ import annotations


def is_lyndon(u) -> bool:
    """Nonempty and strictly smaller than each of its proper endings."""
    if not u:
        return False
    return all(u < u[i:] for i in range(1, len(u)))


# lyndon_up_to(4, 11) builds its 526,638 words in 1.4 s (one core of a
# 2-core x86 host, Python 3.11); the count grows like theta^n / n
MAX_LYNDON_WORDS = 100_000


def lyndon_up_to(theta: int, n: int):
    """All Lyndon words over 1..theta of length <= n, lexicographically ordered
    (Duval's generation algorithm).  Refuses, before generating any, when
    the necklace formula counts more than MAX_LYNDON_WORDS of them."""
    if theta < 1 or n < 1:
        raise ValueError("need theta >= 1 and n >= 1")
    if theta == 1:
        n = 1  # the only Lyndon word over one letter is 1
    # necklace formula: theta^k = sum of d * count[d] over the divisors d of k
    count = {}
    for k in range(1, n + 1):
        count[k] = (theta**k - sum(d * c for d, c in count.items() if k % d == 0)) // k
        if sum(count.values()) > MAX_LYNDON_WORDS:
            raise ValueError(f"more than {MAX_LYNDON_WORDS} Lyndon words over {theta} letters up to length {n}")
    out = []
    w = [1]
    while w:
        out.append(tuple(w))
        # extend periodically to full length, then increment the tail
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == theta:
            w.pop()
        if w:
            w[-1] += 1
    return out


def shirshov_decompose(u):
    """Split u = (v, w) at the lexicographically minimal proper ending w.

    The least nonempty ending of a word is the last factor of its Lyndon
    factorization, so w is the last Lyndon factor of u[1:], which Duval's
    algorithm finds in time linear in len(u)."""
    if len(u) < 2:
        raise ValueError("word must have length >= 2")
    s, n = u[1:], len(u) - 1
    i = last = 0
    while i < n:
        # s[i:j] is a power of the Lyndon word s[i:i + j - k], plus a prefix of it
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = k + 1 if s[k] == s[j] else i
            j += 1
        while i <= k:
            last = i
            i += j - k
    return u[:last + 1], u[last + 1:]


def longest_lyndon_proper_ending_split(u):
    """The alternative characterization for Lyndon u; must agree with
    shirshov_decompose on Lyndon words."""
    if len(u) < 2:
        raise ValueError("word must have length >= 2")
    for i in range(1, len(u)):
        if is_lyndon(u[i:]):
            return u[:i], u[i:]
    raise ValueError("no Lyndon proper ending")


def is_shirshov_closed(members, theta: int) -> bool:
    s = set(members)
    for u in s:
        if not is_lyndon(u):
            raise ValueError(f"not a Lyndon word: {u}")
        if min(u) < 1 or max(u) > theta:
            raise ValueError(f"letter out of range in {u}")
    for i in range(1, theta + 1):
        if (i,) not in s:
            return False
    for u in s:
        if len(u) >= 2:
            v, w = shirshov_decompose(u)
            if v not in s or w not in s:
                return False
    return True


def shirshov_closure(members, theta: int):
    """Least Shirshov-closed superset, sorted lexicographically."""
    s = set()
    stack = [(i,) for i in range(1, theta + 1)] + list(members)
    while stack:
        u = stack.pop()
        if u in s:
            continue
        if not is_lyndon(u):
            raise ValueError(f"not a Lyndon word: {u}")
        s.add(u)
        if len(u) >= 2:
            stack.extend(shirshov_decompose(u))
    return tuple(sorted(s))


def c_set(members):
    """The Lyndon words uv with u < v in L, Sh(uv) = (u|v), uv not in L."""
    s = set(members)
    out = set()
    for u in s:
        for v in s:
            if u < v:
                w = u + v
                if w not in s and shirshov_decompose(w) == (u, v):
                    out.add(w)
    return tuple(sorted(out))


def xlen(U) -> int:
    """Length of a super word, counted in original letters."""
    return sum(map(len, U))


def prec_cmp(U, V) -> int:
    """The well-founded order on super words: shorter first, then reversed
    lexicographic (U comes earlier when it is lexicographically bigger)."""
    lu, lv = xlen(U), xlen(V)
    if lu != lv:
        return -1 if lu < lv else 1
    if U == V:
        return 0
    return -1 if U > V else 1


def greatest_first(U):
    """Sort key for the order of prec_cmp, greatest first: ascending keys put
    the longest, then lexicographically smallest, super word first."""
    return (-xlen(U), U)


def parse_word(text: str):
    """Word literal: a digit string like "112", or comma-separated indices,
    where a trailing comma is allowed ("10," is the one letter 10).  Each
    index is a nonempty run of ASCII digits."""
    text = text.strip()
    if not text:
        raise ValueError("empty word literal")
    parts = text.removesuffix(",").split(",") if "," in text else text
    if not (text.isascii() and text.isdigit() or all(p.isascii() and p.isdigit() for p in parts)):
        raise ValueError(f"bad word literal: {text!r}")
    letters = tuple(map(int, parts))
    if 0 in letters:
        raise ValueError(f"letters must be >= 1 in {text!r}")
    return letters


def format_word(u) -> str:
    """The literal that parse_word reads back: digits while every letter is
    at most 9, else comma-separated, a single letter with a trailing comma."""
    if any(x > 9 for x in u):
        return ",".join(map(str, u)) + "," * (len(u) == 1)
    return "".join(map(str, u))
