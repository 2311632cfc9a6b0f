"""The hand-written recursive-descent parser of the scalar grammar.

hopfbax.scalars parses scalar strings with the standard library's `ast`
after a token check.  This is the descent parser it replaced, kept as the
reference that the differential test in test_scalars.py compares against:
both must accept the same strings, give the same canonical string, and
refuse the same strings.  It uses the package's ParamScalar arithmetic and
its size and work bounds (`_bounded`, `_token_units`, `_charge_product`,
`_words`, `MAX_EXPONENT` and the `MAX_WORK` budget), nothing of the new
parser.  It charges every token before it parses, each product before it
is computed, each quotient v / w as the product of v with w ** -1 (whose
inverse, unlike the package's parser, may run Euclid's algorithm), and in
a sum only two coefficients of one key over two denominators, as the
product that adds them.  It bounds what the new parser bounds: each factor
of a product or quotient, each product and quotient, each power and the
whole string, but no summand of a sum, so `(mu^1000+mu^-1000) - mu^1000`
parses.  It checks the two grammar rules on the tokens: a powered base is
one name, parenthesized or not, and no binary + or - is read inside a
divisor.
"""

import re

from hopfbax.scalars import MAX_EXPONENT, MAX_WORK, ParamScalar, _bounded, \
    _charge, _charge_product, _token_units, _words

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\*\*|[()+\-*/^])")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character in scalar string at {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, domain):
        self.toks = tokens
        self.i = 0
        self.domain = domain
        self.sums = 0     # binary + and - read so far
        self.close = {}   # index of each matched "(" -> index of its ")"
        self.budget = [MAX_WORK]   # work left to the products
        _charge(self.budget, sum(map(_token_units, tokens)))
        opened = []
        for i, t in enumerate(tokens):
            if t == "(":
                opened.append(i)
            elif t == ")" and opened:
                self.close[opened.pop()] = i

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.toks[self.i:]!r}")
        return _bounded(v)

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            self.sums += 1
            w = self.term()
            for key in v.terms.keys() & w.terms.keys():
                a, b = v.terms[key], w.terms[key]
                if a.den != b.den:
                    _charge(self.budget, _words((a,)) * _words((b,)))
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            sums = self.sums
            w = self.factor()
            if op == "/" and self.sums != sums:
                raise ValueError("a divisor may hold no binary + or -")
            _bounded(v), _bounded(w)
            if op == "/":
                w = w ** -1
            _charge_product(self.budget, v, w)
            v = _bounded(v * w)
        return v

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        end = self.close.get(self.i, self.i) + 1
        k, after = self.exponent(end)
        if k is None:
            return self.atom()
        if [t for t in self.toks[self.i:end] if t not in ("(", ")")] not in \
                (["q"], ["s"], ["mu"], ["nu"]):
            raise ValueError("only q, s, mu and nu take an exponent")
        v = self.atom()
        self.i = after
        return _bounded(v ** k)

    def exponent(self, j):
        """(k, index after it) for a "^ [-] integer" at token j, else (None, j)."""
        toks = self.toks
        if j >= len(toks) or toks[j] != "^":
            return None, j
        sign = 1
        if j + 1 < len(toks) and toks[j + 1] == "-":
            sign, j = -1, j + 1
        t = toks[j + 1] if j + 1 < len(toks) else None
        if t is None or not t.isdigit():
            raise ValueError("exponent must be an integer")
        if int(t) > MAX_EXPONENT:
            raise ValueError(f"exponent {t} is above {MAX_EXPONENT}")
        return sign * int(t), j + 2

    def atom(self):
        t = self.take()
        if t == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t is None:
            raise ValueError("unexpected end of scalar string")
        if t.isdigit():
            return ParamScalar.constant(self.domain.from_fraction(int(t)))
        if t == "q":
            return ParamScalar.constant(self.domain.q())
        if t == "s":
            return ParamScalar.constant(self.domain.s())
        if t == "mu":
            return ParamScalar.mu(self.domain)
        if t == "nu":
            return ParamScalar.nu(self.domain)
        raise ValueError(f"unknown symbol {t!r}")


def parse_param_scalar(text: str, domain) -> ParamScalar:
    """Parse the canonical grammar into a ParamScalar over `domain`."""
    try:
        return _Parser(_tokenize(text), domain).parse()
    except RecursionError:
        raise ValueError("scalar string is nested too deeply") from None
