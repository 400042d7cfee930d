"""Self-test of the benchmark's generator, from the root of a checkout:

    python3 bench/selftest.py

For a few seeds of every family, the text from programs.program_text must
parse to the program dwfs.harness.random_program builds from the same
config and seed: the same rules, by atom name. Parsing interns only the
atoms the text mentions, so the parsed base lacks the atoms no rule uses;
where every atom is used, the two Programs must be equal outright. Exit 0
when all agree.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import programs  # noqa: E402
from dwfs import GeneratorConfig, parse_program, random_program  # noqa: E402

FAMILIES = [
    programs.CRITERION_2,
    programs.CRITERION_3_NORMAL,
    programs.CRITERION_3_POSITIVE,
    programs.DENSE,
    *(programs.sparse(n) for n in (20, 30, 40, 80)),
]
SEEDS = (0, 1, 2, 7, 100_003)


def check(family: programs.Family, seed: int) -> str | None:
    cfg = GeneratorConfig(
        seed=seed,
        num_atoms=family.num_atoms,
        num_rules=family.num_rules,
        max_head=family.max_head,
        max_pos_body=family.max_pos_body,
        max_neg_body=family.max_neg_body,
        neg_probability=family.neg_probability,
    )
    want = random_program(cfg)
    got = parse_program(programs.program_text(family, seed))
    if got.rule_names() != want.rule_names():
        return "rules differ"
    used = {want.atom_names[a] for r in want.rules for a in r.atoms()}
    if set(got.atom_names) != used:
        return "atom tables differ"
    if len(used) == len(want.atom_names) and got != want:
        return "programs differ"
    return None


def main() -> int:
    failures = []
    for family in FAMILIES:
        for seed in SEEDS:
            why = check(family, seed)
            if why:
                failures.append(f"{family.name} seed {seed}: {why}")
    for line in failures:
        print(line)
    print(f"generator self-test: {'FAIL' if failures else 'PASS'} "
          f"({len(FAMILIES)} families x {len(SEEDS)} seeds)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
