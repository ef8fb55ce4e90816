"""Seeded, stratified query streams for the four workloads.

Every stream is a fixed list of slots.  A slot fixes the query kind and its
size rung (group-order band, ladder order or matrix shape); the seed only
picks values inside the slot, so every seed yields the same count of each
kind and of each rung, and no metric moves because a seed drew more large
cases.  Queries are plain JSON-able dicts:

- CLI queries carry `argv` for `immorder.cli.run` and `cmd`, the
  subcommand;
- library queries carry `call`, the `immorder.intalg` or
  `immorder.postnikov` function name, and its integer inputs;
- `params` holds what the checks need to compute the expected answer.

`leq` payloads are files; `generate` returns their contents so the caller
can write them before any pass starts.
"""

from __future__ import annotations

import json
import os
import random

import oracle

WORKLOADS = ("type-queries", "shift-ladder", "large-order", "dense-snf")

# Per-query deadline (seconds) of each workload, at least five times its
# slowest regular query; in large-order the Z/100000 query runs into it.
DEADLINE_S = {"type-queries": 30.0, "shift-ladder": 20.0, "large-order": 3.0, "dense-snf": 10.0}

# The query that fails today: the dense group-ring product makes the
# resolution check quadratic in the order.
FAILING_LARGE_ORDER = ["homology", "--group", "Z/100000", "--twist", "w", "--coeff", "Z", "--degree", "4"]


def generate(workload: str, seed: int, workdir: str) -> tuple[list[dict], dict[str, str]]:
    """(queries, files) for one workload; files maps path -> text."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    queries = {
        "type-queries": _type_queries,
        "shift-ladder": _shift_ladder,
        "large-order": _large_order,
        "dense-snf": _dense_snf,
    }[workload](rng, workdir, files)
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries, files


def _cli(rung: int, argv: list[str], **params) -> dict:
    return {"rung": rung, "cmd": argv[0], "argv": [str(x) for x in argv], "params": params}


def _lib(rung: int, call: str, **params) -> dict:
    return {"rung": rung, "cmd": call, "call": call, "params": params}


# ---------------------------------------------------------------------------
# type-queries


def _cyclic_payload(rng, w1: int, exp: int, odd: int, w2_class: str) -> dict:
    """A cyclic type of order 2^exp * odd.  What a type costs to build
    depends on w1, n and whether w2 is inf (a non-orientable almost-spin
    type also computes the mod-2 reduction of H_4), so the slot fixes those
    and the seed picks the rest."""
    n = 2**exp * odd
    if w2_class == "inf":
        w2 = "inf"
    else:
        w2 = rng.choice(["0", "1"]) if n % 2 == 0 else "0"
    c = rng.randint(-5, 5)
    if w1 == 1 and w2 == "0":
        c -= c % 2  # only the zero class is realized
    return {"group": "cyclic", "n": n, "w1": w1, "w2": w2, "c": c}


def _payload(rng, spec: tuple) -> dict:
    kind = spec[0]
    if kind == "cyc":
        return _cyclic_payload(rng, *spec[1:])
    if kind == "triv":
        return {"group": "trivial", "w2": rng.choice(["0", "inf"])}
    if kind == "Z":
        return {"group": "Z", "w1": spec[1], "w2": rng.choice(["0", "inf"]), "c": rng.randint(-3, 3)}
    # rank 4: an exterior w2 computes both differentials, inf neither
    w2 = "inf" if spec[1] == "inf" else rng.choice(["e12", "e12+e34"])
    c = rng.randint(-4, 4)
    if w2 != "inf":
        c -= c % 2
    return {"group": "Z4", "w2": w2, "c": c}


def _leq_slots() -> list[tuple[int, tuple, tuple]]:
    """(rung, spec_a, spec_b): cyclic pairs over every pair of 2-exponents
    1..5, cycling through orientations, odd parts 1, 3, 5, 7 (rung 0 up to
    3, rung 1 above) and w2 classes; then pairs across the four families."""
    slots = []
    patterns = [(1, 1), (0, 1), (1, 0), (1, 1), (0, 0)]
    classes = ("fin", "inf")
    for i, (ea, eb) in enumerate((x, y) for x in range(1, 6) for y in range(1, 6)):
        w1a, w1b = patterns[i % len(patterns)]
        odd = (1, 3, 5, 7)[i % 4]
        a = ("cyc", w1a, ea, odd, classes[i % 2])
        b = ("cyc", w1b, eb, odd, classes[(i // 2) % 2])
        slots.append((int(odd > 3), a, b))
    odd_cyclic = ("cyc", 0, 0, 5, "fin")
    cross = [
        (odd_cyclic, ("triv",)),
        (("triv",), ("cyc", 0, 0, 9, "inf")),
        (odd_cyclic, ("cyc", 1, 2, 3, "fin")),
        (("triv",), ("cyc", 1, 3, 3, "fin")),
        (("cyc", 1, 1, 3, "inf"), ("triv",)),
        (("Z", 1), ("cyc", 1, 2, 3, "fin")),
        (("cyc", 1, 4, 3, "fin"), ("Z", 0)),
        (("cyc", 0, 3, 3, "fin"), ("Z", 1)),
        (("Z", 0), ("Z", 1)),
        (("Z", 1), ("triv",)),
        (("Z4", "fin"), ("Z4", "fin")),
        (("Z4", "fin"), ("Z4", "inf")),
        (("Z4", "inf"), ("Z4", "fin")),
        (("Z4", "fin"), ("triv",)),
        (("triv",), ("Z4", "fin")),
        (("Z4", "fin"), ("cyc", 1, 2, 3, "fin")),
        (("cyc", 0, 5, 3, "fin"), ("Z4", "inf")),
        (("Z", 1), ("Z4", "fin")),
    ]
    slots += [(0, a, b) for a, b in cross]
    return slots


def _presentation(rng, count: int) -> list[str]:
    words = []
    while len(words) < count:
        w = oracle.free_reduce("".join(rng.choice("aAbB") for _ in range(rng.randint(3, 9))))
        if w:
            words.append(w)
    return words


def _fibering_relator(rng) -> tuple[str, int, int]:
    """A cyclically reduced relator killed by a character nonzero on a, b."""
    while True:
        pa, pb = rng.choice([-1, 1, 2]), rng.choice([-1, 1, -2])
        scale = rng.randint(1, 2)
        letters = list(("a" if pb > 0 else "A") * abs(pb) * scale + ("B" if pa > 0 else "b") * abs(pa) * scale)
        for _ in range(rng.randint(1, 3)):
            letters += rng.choice([["a", "A"], ["b", "B"]])
        rng.shuffle(letters)
        word = "".join(letters)
        if word == oracle.free_reduce(word) and word[0] != oracle._INVERSE[word[-1]]:
            return word, pa, pb


def _type_queries(rng, workdir, files) -> list[dict]:
    out = []
    for rung, spec_a, spec_b in _leq_slots():
        a, b = _payload(rng, spec_a), _payload(rng, spec_b)
        paths = []
        for payload in (a, b):
            path = os.path.join(workdir, f"type{len(files)}.json")
            files[path] = json.dumps(payload, sort_keys=True)
            paths.append(path)
        out.append(_cli(rung, ["leq", *paths], a=a, b=b))
    for exp in (1, 2, 3, 4, 5):
        n = 2**exp * 3
        w2 = rng.choice(["0", "1"])
        out.append(_cli(0, ["realizable", "--group", f"Z/{n}", "--w1", 1, "--w2", w2], group="cyclic", n=n, w1=1, w2=w2))
    for group, w1, w2 in (("Z4", 0, rng.choice(["0", "e12", "e12+e34"])), ("Z", 1, "0"), ("trivial", 0, "inf")):
        out.append(_cli(0, ["realizable", "--group", group, "--w1", w1, "--w2", w2], group=group, n=None, w1=w1, w2=w2))
    for i, lo in enumerate((8, 14, 20, 26, 32, 40)):
        twist, coeff = ("0", "w")[i % 2], ("Z", "Z2")[i // 3]
        n = rng.randint(lo, lo + 2)
        n += n % 2 if twist == "w" else 0
        degree = rng.choice(((2, 3), (4, 5))[i % 2])
        argv = ["homology", "--group", f"Z/{n}", "--twist", twist, "--coeff", coeff, "--degree", degree]
        out.append(_cli(0, argv, group="cyclic", n=n, twist=int(twist == "w"), coeff=coeff, degree=degree))
    for coeff in ("Z", "Z2"):
        degree = rng.randint(0, 5)
        argv = ["homology", "--group", "Z4", "--coeff", coeff, "--degree", degree]
        out.append(_cli(0, argv, group="Z4", n=None, twist=0, coeff=coeff, degree=degree))
    for _ in range(4):
        n = rng.randint(2, 64)
        w1, w2 = rng.choice(["0", "t"]), rng.choice(["0", "s"])
        out.append(_cli(0, ["sq2w", "--group", f"Z/{n}", "--w1", w1, "--w2", w2], group="cyclic", n=n, w1=w1, w2=w2))
    for w2 in ("e12", "e12+e34"):
        out.append(_cli(0, ["sq2w", "--group", "Z4", "--w1", "0", "--w2", w2], group="Z4", n=None, w1="0", w2=w2))
    for _ in range(4):
        word, pa, pb = _fibering_relator(rng)
        out.append(_cli(0, ["fibered", "--relator", word, "--phi", f"a={pa},b={pb}"], relator=word, a=pa, b=pb))
    for count in (1, 2, 2, 3):
        rels = _presentation(rng, count)
        text = "<a,b|" + ",".join(rels) + ">"
        out.append(_cli(0, ["abelianization", "--presentation", text], relators=rels))
    for count in (1, 1, 2, 2):
        rels = _presentation(rng, count)
        chars = [(x, y) for x in (0, 1) for y in (0, 1) if oracle.is_mod2_character(rels, x, y)]
        wa, wb = rng.choice(chars)
        text = "<a,b|" + ",".join(rels) + ">"
        out.append(_cli(0, ["integral-lift", "--presentation", text, "--w1", f"a={wa},b={wb}"], relators=rels, a=wa, b=wb))
    for m in (1, 2, 3, 4):
        argv = ["order-graph", "--family", "cyclic", "--max-exp", m, "--combined", "--format", "json"]
        out.append(_cli(1 + m, argv, max_exp=m))
    return out


# ---------------------------------------------------------------------------
# shift-ladder

SHIFT_W_LADDER = (8, 16, 24, 32, 40)
SHIFT_0_LADDER = (9, 10, 11, 21, 27)
CHAIN_K_LADDER = (2, 4, 8, 12, 16, 20)
RUNG_EDGES = (12, 20, 28, 34, 40)  # a query's rung: first edge >= its group order


def _order_rung(n: int) -> int:
    return next(i for i, edge in enumerate(RUNG_EDGES) if n <= edge)


def _shift_ladder(rng, workdir, files) -> list[dict]:
    out = []
    ladder = [(n, "w") for n in SHIFT_W_LADDER] + [(n, "0") for n in SHIFT_0_LADDER]
    for pair, (n, w) in enumerate(ladder):
        c = rng.choice([x for x in range(-9, 10) if x])
        seeds = rng.sample(range(1000), 2)
        for s in seeds:
            argv = ["shift", "--group", f"Z/{n}", "--w", w, "--c", c, "--seed", s]
            out.append(_cli(_order_rung(n), argv, n=n, w=int(w == "w"), c=c, pair=pair))
    for i, k in enumerate(CHAIN_K_LADDER):
        m = (3, 5)[i % 2]
        argv = ["chain-verify", "--source", k * m, "--target", k]
        out.append(_cli(_order_rung(2 * k), argv, source=k * m, target=k))
    for k in CHAIN_K_LADDER[1:]:
        out.append(_lib(_order_rung(2 * k), "factorization_obstruction", k=k))
    return out


# ---------------------------------------------------------------------------
# large-order

# (band of orders, homology slots (twist, coeff, degrees), realizable?,
# model-complex k).  Degrees come in pairs with the same number of dense
# N (1 - a) products in the resolution check (one per even boundary), so
# a seed's choice changes the cost little.  The second rung holds the
# median query inside a cluster of similar cost.
LARGE_RUNGS = (
    ((240, 252), (("w", "Z", (4, 5)), ("0", "Z", (4, 5)), ("0", "Z2", (6, 7))), True, 8),
    ((500, 525), (("w", "Z", (4, 5)), ("0", "Z", (4, 5)), ("0", "Z2", (4, 5))) * 3, False, 9),
    ((1000, 1050), (("w", "Z", (4, 5)), ("0", "Z", (2, 3)), ("0", "Z2", (2, 3))), True, 10),
    ((2000, 2100), (("w", "Z", (2, 3)), ("0", "Z", (2, 3)), ("0", "Z2", (2, 3))), False, 11),
)


def _large_order(rng, workdir, files) -> list[dict]:
    out = []
    for rung, ((lo, hi), homology_slots, with_realizable, k) in enumerate(LARGE_RUNGS):
        for twist, coeff, degrees in homology_slots:
            n = rng.randint(lo, hi)
            if twist == "w":
                n += n % 2
            degree = rng.choice(degrees)
            argv = ["homology", "--group", f"Z/{n}", "--twist", twist, "--coeff", coeff, "--degree", degree]
            out.append(_cli(rung, argv, group="cyclic", n=n, twist=int(twist == "w"), coeff=coeff, degree=degree))
        if with_realizable:
            n = rng.randint(lo, hi) // 2 * 2
            w2 = rng.choice(["0", "1"])
            argv = ["realizable", "--group", f"Z/{n}", "--w1", 1, "--w2", w2]
            out.append(_cli(rung, argv, group="cyclic", n=n, w1=1, w2=w2))
        coeff = rng.choice(["Z", "Z2"])
        for name in (coeff, "ZZ2w"):
            out.append(_cli(rung, ["model-cohomology", "--k", k, "--coeff", name], k=k, coeff=name))
    # rung -1 keeps the failing query out of every rung's timing
    out.append(_cli(-1, FAILING_LARGE_ORDER, group="cyclic", n=100000, twist=1, coeff="Z", degree=4))
    return out


# ---------------------------------------------------------------------------
# dense-snf

# rung -> [(operation, rows, cols, count)]
DENSE_RUNGS = (
    (("smith_normal_form", 8, 8, 24), ("smith_normal_form", 6, 10, 12), ("cokernel", 8, 8, 12), ("kernel_basis", 6, 10, 12), ("solve_linear", 8, 8, 12)),
    (("smith_normal_form", 12, 12, 24), ("smith_normal_form", 14, 10, 12), ("cokernel", 12, 12, 12), ("kernel_basis", 10, 14, 12), ("solve_linear", 12, 12, 12)),
    (("smith_normal_form", 15, 15, 32), ("smith_normal_form", 13, 17, 16), ("cokernel", 15, 15, 16), ("kernel_basis", 13, 17, 16), ("solve_linear", 15, 15, 16)),
    (("smith_normal_form", 18, 18, 100), ("smith_normal_form", 16, 20, 50), ("cokernel", 18, 18, 50), ("kernel_basis", 16, 20, 50), ("solve_linear", 18, 18, 50)),
)
ENTRY_BOUND = 9


def _dense_snf(rng, workdir, files) -> list[dict]:
    out = []
    for rung, ops in enumerate(DENSE_RUNGS):
        for op, r, c, count in ops:
            for _ in range(count):
                rows = [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(c)] for _ in range(r)]
                if op == "solve_linear":
                    x = [rng.randint(-5, 5) for _ in range(c)]
                    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
                    out.append(_lib(rung, op, rows=rows, rhs=rhs))
                else:
                    out.append(_lib(rung, op, rows=rows))
    return out
