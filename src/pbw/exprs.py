"""Small expression grammar for the command line:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := 'x' WORD | 'g' INT | scalar | '(' expr ')'
            | '[' expr ',' expr ']' ('_' INT)?

'x112' is the letter for the word 112 (the word must belong to L), 'g2' the
second group generator.  Scalars are integers, rationals 'a/b', or 'z'
resp. 'z^k' for the distinguished root of unity.  A bracket '[a,b]_k' is the
commutator twisted by zeta^k; without the suffix the twist is read off the
gradings.  Errors carry 1-based line and column positions.

Two limits bound the work; past either, the parser raises ExprError before
forming the product: MAX_EXPR_TERMS on the len(a) * len(b) terms that a
product of a and b can have, and MAX_EXPR_DEGREE on an exponent and on the
letters in a word of a product.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import NCPoly
from .words import parse_word, xlen

# (x1+x2)^16 over uq_sl2 took 0.94 s for its 65,536 terms, and the time grows
# 4 times per 2 more in the exponent; x1^4000 took 0.30 s, quadratic in the
# exponent (one core of a 2-core x86 host, Python 3.11)
MAX_EXPR_TERMS = 16_384
MAX_EXPR_DEGREE = 1_000


class ExprError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Parser:
    def __init__(self, text, datum):
        self.text = text
        self.datum = datum
        self.pos = 0

    # -- position helpers ------------------------------------------------

    def _linecol(self, pos=None):
        pos = self.pos if pos is None else pos
        before = self.text[:pos]
        line = before.count("\n") + 1
        col = pos - (before.rfind("\n") + 1) + 1
        return line, col

    def _error(self, msg, pos=None):
        raise ExprError(msg, *self._linecol(pos))

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, ch):
        if self._peek() != ch:
            self._error(f"expected {ch!r}")
        self.pos += 1

    def _int(self):
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self._error("expected an integer", start)
        return int(self.text[start:self.pos])

    # -- grammar ----------------------------------------------------------

    def parse(self):
        try:
            out = self.expr()
        except RecursionError:  # a few hundred nested '(', '[' or signs; the
            # position is the start, whatever stack depth the caller left
            self._error("the expression is nested too deeply", 0)
        self._skip_ws()
        if self.pos != len(self.text):
            self._error("trailing input")
        return out

    def expr(self):
        out = self.term()
        while True:
            c = self._peek()
            if c == "+":
                self.pos += 1
                out = out + self.term()
            elif c == "-":
                self.pos += 1
                out = out - self.term()
            else:
                return out

    def _check_product(self, a, b, pos):
        """Refuse a product past the term or the degree limit."""
        terms = len(a.terms) * len(b.terms)
        if terms > MAX_EXPR_TERMS:
            self._error(f"a product of up to {terms} terms exceeds the limit of {MAX_EXPR_TERMS}", pos)
        degree = sum(max((xlen(U) for U, _g in p.terms), default=0) for p in (a, b))
        if degree > MAX_EXPR_DEGREE:
            self._error(f"a product of degree {degree} exceeds the limit of {MAX_EXPR_DEGREE}", pos)

    def term(self):
        out = self.factor()
        while self._peek() == "*":
            start = self.pos
            self.pos += 1
            b = self.factor()
            self._check_product(out, b, start)
            out = self.datum.mul(out, b)
        return out

    def factor(self):
        out = self.atom()
        if self._peek() == "^":
            start = self.pos
            self.pos += 1
            n = self._int()
            if n < 0:
                self._error("negative powers are not defined here")
            if n > MAX_EXPR_DEGREE:
                self._error(f"the exponent {n} exceeds the limit of {MAX_EXPR_DEGREE}", start)
            acc = self.datum.unit()
            for _ in range(n):
                self._check_product(acc, out, start)
                acc = self.datum.mul(acc, out)
            return acc
        return out

    def atom(self):
        d = self.datum
        c = self._peek()
        start = self.pos
        if c == "(":
            self.pos += 1
            out = self.expr()
            self._take(")")
            return out
        if c == "[":
            self.pos += 1
            a = self.expr()
            self._take(",")
            b = self.expr()
            self._take("]")
            self._check_product(a, b, start)
            if self._peek() == "_":
                self.pos += 1
                k = self._int()
                return d.q_commutator(a, b, d.field.root(k))
            try:
                return d.graded_commutator(a, b)
            except ValueError as e:
                self._error(f"untwisted bracket needs homogeneous arguments: {e}", start)
        if c == "x":
            self.pos += 1
            word = self._word()
            if word not in set(d.L):
                self._error(f"x{''.join(map(str, word))} is not a letter of L", start)
            return d.letter(word)
        if c == "g":
            self.pos += 1
            i = self._int()
            if not 1 <= i <= d.group.nfactors:
                self._error(f"group generator g{i} out of range", start)
            exps = [0] * d.group.nfactors
            exps[i - 1] = 1
            return d.group_like(d.group.element(exps))
        if c == "z":
            self.pos += 1
            k = 1
            if self._peek() == "^":
                self.pos += 1
                k = self._int()
            return d.unit(d.field.root(k))
        if c.isdigit():
            return d.unit(self._scalar())
        if c == "-":
            nxt = self.pos + 1
            while nxt < len(self.text) and self.text[nxt].isspace():
                nxt += 1
            if nxt < len(self.text) and self.text[nxt].isdigit():
                return d.unit(self._scalar())
            self.pos += 1
            return -self.factor()
        self._error("expected an atom")

    def _word(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self._error("expected a word of digits after 'x'", start)
        try:
            return parse_word(self.text[start:self.pos])
        except ValueError as e:
            self._error(str(e), start)

    def _scalar(self):
        start = self.pos
        n = self._int()
        if self._peek() == "/":
            self.pos += 1
            den = self._int()
            if den == 0:
                self._error("zero denominator", start)
            try:
                return self.datum.field.from_rational(Fraction(n, den))
            except ZeroDivisionError as e:  # over F_p, a denominator divisible by p
                self._error(str(e), start)
        return self.datum.field.from_rational(n)


def parse_expr(text: str, datum) -> NCPoly:
    return _Parser(text, datum).parse()
