"""The character-level formula parser, kept as the reference for fparse.

It scans the text one character at a time: whitespace is skipped, an
identifier is a letter followed by letters, digits and underscores, and an
error reports the position of the first character it could not accept.
"""

from deepflow.formula import AND, OR, Formula, FormulaSyntaxError, bot, lit, top


def reference_fparse(text: str) -> Formula:
    pos = 0
    n = len(text)

    def skip():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def ident():
        nonlocal pos
        start = pos
        if pos >= n or not (text[pos].isalpha()):
            raise FormulaSyntaxError("expected identifier", pos)
        pos += 1
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    # one entry per open "(": None until its left operand is read, then the
    # pair (connective, left operand) while its right operand is read
    stack = []
    while True:
        skip()
        if pos >= n:
            raise FormulaSyntaxError("unexpected end of input", pos)
        if text[pos] == "(":
            pos += 1
            stack.append(None)
            continue
        if text[pos] == "~":
            pos += 1
            skip()
            f = lit(ident(), True)
        else:
            name = ident()
            f = top if name == "T" else bot if name == "F" else lit(name)
        while stack and stack[-1] is not None:
            kind, left = stack.pop()
            skip()
            if pos >= n or text[pos] != ")":
                raise FormulaSyntaxError("expected ')'", pos)
            pos += 1
            f = Formula(kind, left, f)
        if not stack:
            break
        skip()
        if pos >= n or text[pos] not in "&|":
            raise FormulaSyntaxError("expected '&' or '|'", pos)
        stack[-1] = (AND if text[pos] == "&" else OR, f)
        pos += 1
    skip()
    if pos != n:
        raise FormulaSyntaxError("trailing input", pos)
    return f
