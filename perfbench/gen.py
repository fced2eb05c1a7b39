"""Seeded input generator for the perfbench workloads.

Everything the program under test reads is made here from the seed:
the batch translation unit, the serve definitions file and the serve
request units.  The same seed gives byte-identical inputs.  Alongside
each input the generator returns the structural counts the expanded
output must show, so checks do not depend on the program's own view.
"""

import random

# The two macros of the paper the workloads exercise: a declaration
# macro generating an enum plus a printer and a reader per constant
# (Section 4's `myenum`), and a statement macro wrapping a body in a
# begin/end pair (Section 2's `Painting`).
DEFS = (
    "syntax decl myenum [] {| $$id::name { $$+/, id::ids } ; |} {\n"
    "  return list(\n"
    "    `[enum $name {$ids};],\n"
    "    `[void $(symbolconc(\"print_\", name))(int arg)\n"
    "      { switch (arg)\n"
    "        {$(map((@id id; `{case $id: {printf(\"%s\", $(pstring(id))); "
    "break;}}), ids))} }],\n"
    "    `[int $(symbolconc(\"read_\", name))()\n"
    "      { char s[100];\n"
    "        getline(s, 100);\n"
    "        $(map((@id id; `{if (strcmp(s, $(pstring(id))) == 0) return $id;}), "
    "ids))\n"
    "        return -1; }]);\n"
    "}\n"
    "syntax stmt Painting {| $$stmt::body |} {\n"
    "  return `{BeginPaint(hDC, &ps);\n"
    "  $body;\n"
    "  EndPaint(hDC, &ps);};\n"
    "}\n"
)

_ALPHA = "abcdefghijklmnopqrstuvwxyz"
_CALLS = ("line", "fill", "pixel", "move", "blit", "clip")


class Counts:
    """Structural counts an expansion of the generated text must show."""

    def __init__(self):
        self.enums = 0  # `enum` declarations (one per myenum use)
        self.constants = 0  # enum constants == `case` labels
        self.paintings = 0  # Painting uses == BeginPaint/EndPaint pairs


class Names:
    """Distinct identifier source: a seeded random stem, the source's
    tag and a serial number, so no two names of one source collide and
    sources with different tags share no name."""

    def __init__(self, rng, tag):
        self.rng = rng
        self.tag = tag
        self.serial = 0

    def fresh(self):
        self.serial += 1
        stem = "".join(self.rng.choice(_ALPHA) for _ in range(4))
        return "%s%s_%d" % (stem, self.tag, self.serial)


def myenum_use(rng, names, n_consts, counts):
    ids = [names.fresh() for _ in range(n_consts)]
    counts.enums += 1
    counts.constants += n_consts
    return "myenum %s { %s };\n" % (names.fresh(), ", ".join(ids))


def painting_fn(rng, names, n_uses, counts):
    """A function with `n_uses` Painting statements, each nested two
    deep (an outer use whose body holds an inner use)."""
    out = ["int %s(int hDC)\n{\n  int ps;\n" % names.fresh()]
    for _ in range(n_uses):
        a, b, c = (rng.randint(0, 999) for _ in range(3))
        out.append(
            "  Painting { %s(%d, %d); Painting { %s(%d); } }\n"
            % (rng.choice(_CALLS), a, b, rng.choice(_CALLS), c)
        )
        counts.paintings += 2
    out.append("  return ps;\n}\n")
    return "".join(out)


def plain_fn(rng, names):
    k = rng.randint(2, 9)
    return (
        "int %s(int a, int b)\n{\n  int i;\n  int s = %d;\n"
        "  for (i = 0; i < a; i++) {\n    if (i %% %d == 0) s += i * b;\n"
        "    else s -= b;\n  }\n  return s;\n}\n" % (names.fresh(), k, k)
    )


def unit(rng, names, counts, n_consts):
    """One generated unit: a myenum use, then either a Painting function
    or a plain-C control function (alternating by coin flip)."""
    parts = [myenum_use(rng, names, n_consts, counts)]
    if rng.random() < 0.5:
        parts.append(painting_fn(rng, names, rng.randint(1, 3), counts))
    else:
        parts.append(plain_fn(rng, names))
    return "".join(parts)


def batch_unit(seed, n_units, mean_consts=10, tag="b"):
    """A batch translation unit: DEFS followed by `n_units` units with
    `mean_consts` constants each on average.  Returns (text, Counts)."""
    rng = random.Random("batch-%s-%d" % (tag, seed))
    names = Names(rng, tag)
    counts = Counts()
    parts = [DEFS]
    for _ in range(n_units):
        n = rng.randint(mean_consts - 4, mean_consts + 4)
        parts.append(unit(rng, names, counts, n))
    return "".join(parts), counts


def serve_units(seed, tag, n, size=1, n_consts=8):
    """`n` request texts for the serve workloads, each `size` units of
    `n_consts` constants.  Texts of one tag never share an identifier;
    different tags give disjoint name sets too (the tag is part of
    every name)."""
    rng = random.Random("serve-%s-%d" % (tag, seed))
    names = Names(rng, tag)
    return [
        "".join(unit(rng, names, Counts(), n_consts) for _ in range(size))
        for _ in range(n)
    ]


def plain_idents(seed, n):
    """Macro-free C declaring `n` distinct enum constants, ten to an
    enum: the interner's doubling probe input."""
    rng = random.Random("idents-%d-%d" % (seed, n))
    names = Names(rng, "p")
    out = []
    for _ in range(0, n, 10):
        out.append(
            "enum %s { %s };\n"
            % (names.fresh(), ", ".join(names.fresh() for _ in range(10)))
        )
    return "".join(out)
