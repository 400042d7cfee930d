"""Program families of the benchmark, emitted as program text.

`program_text` makes the same draws from `random.Random(seed)`, in the same
order, as `dwfs.harness.random_program`, so a family config and seed name
the same rule set as the library's generator does. The copy is kept here so
that a later change to the library's generator cannot silently change a
workload; `selftest.py` checks that the two still agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    name: str
    num_atoms: int
    num_rules: int
    max_head: int
    max_pos_body: int
    max_neg_body: int
    neg_probability: float = 0.5


# Acceptance criterion 2: the equivalence fuzz family.
CRITERION_2 = Family("criterion-2", 6, 8, 3, 3, 3, 0.5)
# Acceptance criterion 3: normal programs, checked against normal_wfs.
CRITERION_3_NORMAL = Family("criterion-3-normal", 5, 7, 1, 2, 2, 0.7)
# Acceptance criterion 3: positive programs, checked against gcwa_negatives.
CRITERION_3_POSITIVE = Family("criterion-3-positive", 5, 6, 3, 3, 3, 0.0)
# The blow-up family; seed 0 is the program whose saturation runs for minutes.
DENSE = Family("dense", 10, 16, 2, 2, 2, 0.5)


def sparse(num_atoms: int) -> Family:
    """The sparse family: as many rules as atoms, short bodies."""
    return Family(f"sparse-{num_atoms}", num_atoms, num_atoms, 2, 1, 2, 0.5)


def atom_name(i: int) -> str:
    """a, b, ..., z, aa, ab, ...: spreadsheet-style names."""
    name = ""
    while True:
        name = chr(ord("a") + i % 26) + name
        i = i // 26 - 1
        if i < 0:
            return name


def draw_rules(family: Family, seed: int) -> list[tuple[list, list, list]]:
    """The (head, positive body, negative body) atom-id lists, in draw order."""
    rnd = random.Random(seed)
    atoms = list(range(family.num_atoms))
    rules = []
    for _ in range(family.num_rules):
        head = rnd.sample(atoms, rnd.randint(1, family.max_head))
        pos = rnd.sample(atoms, rnd.randint(0, family.max_pos_body))
        if rnd.random() < family.neg_probability:
            neg = rnd.sample(atoms, rnd.randint(0, family.max_neg_body))
        else:
            neg = []
        rules.append((head, pos, neg))
    return rules


def program_text(family: Family, seed: int) -> str:
    """One rule per line; duplicate atoms and rules merge when parsed."""
    lines = []
    for head, pos, neg in draw_rules(family, seed):
        line = " | ".join(atom_name(a) for a in sorted(set(head)))
        body = [atom_name(a) for a in sorted(set(pos))]
        body += ["not " + atom_name(a) for a in sorted(set(neg))]
        if body:
            line += " :- " + ", ".join(body)
        lines.append(line + ".")
    return "\n".join(lines) + "\n"
