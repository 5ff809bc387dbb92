"""The glue that inserts an eq step at each joint and keeps every re-anchor
leaf, kept as the reference for derivation.glue.

It skips a leaf part equal to the conclusion so far, and a leaf so far equal
to the next part's premiss; every other joint becomes one eq step over the
parts as they are.
"""

from deepflow.derivation import EQ, LEAF, GlueError, conclusion, premiss, step
from deepflow.formula import eq_mod, fprint


def reference_glue(*parts):
    parts = [p for p in parts if p is not None]
    if not parts:
        raise GlueError("nothing to glue")
    d = parts[0]
    for p in parts[1:]:
        cn = conclusion(d)
        if p.kind == LEAF and p.a == cn:
            continue
        if d.kind == LEAF and d.a == premiss(p):
            d = p
            continue
        if not eq_mod(cn, premiss(p)):
            raise GlueError(f"cannot glue: {fprint(cn)} vs {fprint(premiss(p))}")
        d = step(EQ, d, p)
    return d
