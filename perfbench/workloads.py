"""Seeded query lists for the benchmark workloads.

A query is the work of one `cantor3` command (`dim`, `contain`, `iso`,
`blocks`) or one `count_paths` call. Each query dict holds the command's
inputs, which are all the program under test receives, plus reference
hints (`values`, `expect`) that only the parent's correctness checks read.

Every workload keeps the cost of its queries fixed, so that its metrics
are comparable across seeds: the seed picks the query order, how each
multiplier is spelled (M, 3M, 9M, ternary or family form, all of which
normalize alike), and members only where the pick leaves the cost alone
(the scan window's offset, absorbed L-pair members). Each workload also runs
one query of every other command, sized to the workload, so that every layer
reports a measured time in every traced run.
"""

from __future__ import annotations

import hashlib
import json
import random

# The fields of each query kind that are sent to the program.
INPUT_FIELDS = {
    "dim": ("spec",),
    "contain": ("a", "b"),
    "iso": ("a", "b"),
    "blocks": ("spec", "n"),
    "count": ("spec", "n"),
}


def L(k: int) -> int:
    return (3**k - 1) // 2


def N(k: int) -> int:
    return 3**k + 1


def dim(spec, values):
    return {"kind": "dim", "spec": spec, "values": list(values)}


def contain(a, b, values_a, values_b, holds):
    return {"kind": "contain", "a": a, "b": b, "values_a": values_a,
            "values_b": values_b, "expect": holds}


def iso(a, b, values_a, values_b, same):
    return {"kind": "iso", "a": a, "b": b, "values_a": list(values_a),
            "values_b": list(values_b), "expect": same}


def blocks(spec, values, n):
    return {"kind": "blocks", "spec": spec, "values": list(values), "n": n}


def count(spec, values, n):
    return {"kind": "count", "spec": spec, "values": list(values), "n": n}


def _ternary(m: int) -> str:
    digits = ""
    while m:
        m, d = divmod(m, 3)
        digits = str(d) + digits
    return "t:" + digits


def _spell(rng: random.Random, value: int, family: str | None = None) -> str:
    """One of the grammar's spellings of a multiplier; all normalize alike."""
    forms = [str(value), str(3 * value), str(9 * value), _ternary(value)]
    if family:
        forms.append(family)
    return rng.choice(forms)


def scan_singles(rng: random.Random, tiny: bool) -> list:
    """The single multipliers of a window, as `cantor3 scan lo..hi` does,
    except those that are 2 mod 3.

    Half of all multipliers reduce to residue 2 and give the one-vertex
    graph at once; with them all in, the median query would sit on the edge
    between instant and real queries and jump between the two. Leaving out
    M = 2 mod 3 keeps a quarter of the queries trivial (multiples of 3 that
    reduce to residue 2). The window starts at a seeded offset below 30,
    which keeps its cost within about a percent across seeds.
    """
    width = 90 if tiny else 2000
    lo = 1 + rng.randrange(30)
    queries = [dim(str(m), [m]) for m in range(lo, lo + width) if m % 3 != 2]
    cover = [
        contain("Y", "N:3", None, [N(3)], True),
        iso("L:2,L:4", "L:4", [L(2), L(4)], [L(4)], True),
        blocks("7", [7], 8 if tiny else 12),
        count("N:3", [N(3)], 50 if tiny else 200),
    ]
    for q in cover:
        queries.insert(rng.randrange(len(queries) + 1), q)
    return queries


def words(rng: random.Random, tiny: bool) -> list:
    """The same kind of graphs read through exact counting, containment,
    isomorphism and brute-force enumeration instead of float spectra.

    A fixed set of heavy queries (path counts at n = 400, 18-digit block
    counts, containment in N_15, an isomorphism of 2^20 with 3 * 2^20, two
    dims for comparison) sets the wall time and the p90 tail.
    90 light queries stay below that tail: L-pair absorptions, Y against
    N_9 and N_7 both ways, short block counts and path counts on L_k. The
    seed spells their multipliers and picks the absorbed L_j, none of
    which changes their cost.
    """
    if tiny:
        counted, n_long, blocked, n_block = (N(6), 2**12), 60, (N(4),), 10
        host, group_block, iso_e, dims, group, per_kind = 7, 19, 10, (("N:6", N(6)),), 2, 4
    else:
        counted, n_long, blocked, n_block = (N(14), 2**20, N(12), 2**18), 400, (N(9),), 18
        host, group_block, iso_e, dims, group, per_kind = 15, 730, 20, (("N:14", N(14)),), 5, 18
    heavy = [count(str(v), [v], n_long) for v in counted]
    heavy += [blocks(str(v), [v], n_block) for v in blocked]
    heavy += [dim(spec, [v]) for spec, v in dims]
    # Two groups of equal-cost queries hold the p90 cut, so that it does not
    # fall between two unrelated queries whose order noise can swap.
    heavy += [contain("Y", _spell(rng, N(host), f"N:{host}"), None, [N(host)], True)
              for _ in range(group)]
    heavy += [blocks(_spell(rng, group_block), [group_block], n_block) for _ in range(group)]
    heavy.append(iso(str(2**iso_e), str(3 * 2**iso_e), [2**iso_e], [3 * 2**iso_e], True))
    heavy.append(dim(str(2**iso_e), [2**iso_e]))
    light = []
    for i in range(per_kind):
        k2 = 40 if not tiny else 11
        k1 = rng.randrange(k2 - 10, k2)
        light.append(iso(f"L:{k1},{_spell(rng, L(k2), f'L:{k2}')}", f"L:{k2}",
                         [L(k1), L(k2)], [L(k2)], True))
        light.append(contain("Y", _spell(rng, N(9), "N:9"), None, [N(9)], True))
        light.append(contain(_spell(rng, N(7), "N:7"), "Y", [N(7)], None, False))
        m = 100 + 3 * 50 * i  # residue 1, 100 .. 2650
        light.append(blocks(_spell(rng, m), [m], 10))
        k = 2 + 2 * i
        light.append(count(_spell(rng, L(k), f"L:{k}"), [L(k)], 400 if not tiny else 40))
    queries = heavy + light
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "scan-singles": scan_singles,
    "words": words,
}


def generate(name: str, seed: int, tiny: bool = False) -> list:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, tiny)


def program_input(q: dict) -> dict:
    """The part of a query the program under test receives."""
    return {"kind": q["kind"], **{f: q[f] for f in INPUT_FIELDS[q["kind"]]}}


def digest(queries: list) -> str:
    """Short hash of the inputs, to show that two runs used the same queries."""
    blob = json.dumps([program_input(q) for q in queries], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
