"""Workload inputs and output oracles for the weightcalc benchmark.

Pure Python with no weightcalc import, so the parent process can load it
before any interpreter running the program exists.  See README.md for
why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("verify-f2", "deformed-f2", "grid")

# Residue vectors per prime.  Every entry clears the strictest genericity
# gate the grid and verify-f2 suites use (9 <= r_j <= p - 12 for f <= 4);
# a config with f indices takes the first f entries.  Entry 0 is what the
# default seed uses.  At p = 29 most residues make
# characters.collision-scan.0 fail (r = 13 among them); those verdicts
# are frozen as observed, see README.md.  At p = 61 the entries avoid the
# failing band 26..34 so that verify-f2 passes all of its checks.
POOL: dict[int, tuple[tuple[int, ...], ...]] = {
    29: ((13, 16, 10, 15), (14, 9, 12, 17), (11, 15, 17, 9), (16, 12, 14, 10)),
    61: ((13, 16, 19, 22), (20, 44, 9, 37), (41, 11, 35, 18), (24, 39, 47, 12)),
}

GRID_SUITES = ("enumeration", "characters", "cycles", "cm", "lattice", "chain")

# Cube-deformed f=2 resolution of acceptance criterion 5, in its window.
DEFORMED_TAGS = ("Y", "Z")
DEFORMED_ARGV = (
    "tor", "--tags", ",".join(DEFORMED_TAGS), "--full", "--p", "29", "--max-degree", "14",
    "--format", "json",
)

# Hand-written single-factor Betti tables of the cube-deformed quotients,
# frozen here so that the deformed-f2 oracle shares no code with the
# program: rows of (internal degree, y-minus-z character).
FACTOR_TABLES = {
    "Y": (
        ((0, 0),),
        ((1, 1), (2, 0), (3, -3)),
        ((3, 1), (4, -2), (5, -3)),
        ((6, -2),),
    ),
    "Z": (
        ((0, 0),),
        ((1, -1), (2, 0), (3, 3)),
        ((3, -1), (4, 2), (5, 3)),
        ((6, 2),),
    ),
}


def _draw(rng: random.Random | None, p: int) -> tuple[int, ...]:
    pool = POOL[p]
    return pool[0] if rng is None else pool[rng.randrange(len(pool))]


def _subsets(n: int) -> list[tuple[int, ...]]:
    return [c for k in range(n + 1) for c in itertools.combinations(range(n), k)]


def verify_config(seed: int) -> dict:
    """The verify-f2 config: the ROADMAP's f=2 reference run, all suites."""
    rng = random.Random(seed) if seed else None
    return {"f": 2, "p": 61, "j_rho": (0, 1), "r": _draw(rng, 61)[:2], "suites": "all"}


def verify_argv(cfg: dict) -> list[str]:
    return [
        "verify", "--f", str(cfg["f"]), "--p", str(cfg["p"]),
        "--jrho", ",".join(map(str, cfg["j_rho"])),
        "--r", ",".join(map(str, cfg["r"])), "--format", "json",
    ]


def grid_configs(seed: int) -> list[dict]:
    """The 32 grid configs.  Seed 0 keeps pool entry 0 and the canonical
    order; any other seed draws each config's residues from the pool and
    shuffles the order."""
    rng = random.Random(seed) if seed else None
    configs = []
    for p in (29, 61):
        for f in (1, 2, 3, 4):
            j_rhos = _subsets(f) if f <= 3 else [(), tuple(range(f))]
            for j_rho in j_rhos:
                suites = GRID_SUITES
                if len(j_rho) == f:
                    suites += ("split",)
                if f >= 3:
                    suites += ("tor",)
                r = _draw(rng, p)[:f]
                configs.append({"f": f, "p": p, "j_rho": j_rho, "r": r, "suites": suites})
    if rng is not None:
        rng.shuffle(configs)
    return configs


def config_key(cfg: dict) -> str:
    suites = cfg["suites"] if isinstance(cfg["suites"], str) else ",".join(cfg["suites"])
    return (
        f"f={cfg['f']} p={cfg['p']} jrho={','.join(map(str, cfg['j_rho'])) or 'none'} "
        f"r={','.join(map(str, cfg['r']))} suites={suites}"
    )


def every_config() -> list[dict]:
    """Every config any seed can produce: each pool entry in each slot."""
    out = []
    for entry in range(len(POOL[61])):
        out.append({**verify_config(0), "r": POOL[61][entry][:2]})
    for cfg in grid_configs(0):
        for entry in POOL[cfg["p"]]:
            out.append({**cfg, "r": entry[: cfg["f"]]})
    return out


# ------------------------------------------------------------------ oracles


STATUS_LETTERS = {"pass": "p", "fail": "f", "inconclusive": "i"}
LETTER_STATUS = {v: k for k, v in STATUS_LETTERS.items()}


def report_digest(doc: dict) -> tuple[str, dict[str, str]]:
    """SHA-256 of the verdict part of a verify report (everything the
    report holds except timings) and the status of each `suite/check-id`."""
    verdict = {k: doc[k] for k in ("config", "suites", "summary")}
    text = json.dumps(verdict, indent=2)
    statuses = {f"{s['name']}/{c['id']}": c["status"] for s in doc["suites"] for c in s["checks"]}
    return hashlib.sha256(text.encode()).hexdigest(), statuses


def pack_statuses(statuses: dict[str, str]) -> dict[str, str]:
    """Store `suite/module.tag.k` statuses as one letter per k under
    `suite/module.tag`; check ids number each tag from 0 in order."""
    packed: dict[str, str] = {}
    for cid, status in statuses.items():
        prefix, _, k = cid.rpartition(".")
        if int(k) != len(packed.get(prefix, "")):
            raise ValueError(f"check ids out of order at {cid}")
        packed[prefix] = packed.get(prefix, "") + STATUS_LETTERS[status]
    return packed


def unpack_statuses(packed: dict[str, str]) -> dict[str, str]:
    return {
        f"{prefix}.{k}": LETTER_STATUS[letter]
        for prefix, letters in packed.items()
        for k, letter in enumerate(letters)
    }


def load_expected() -> dict:
    """Frozen outputs per config key: report digest and check statuses."""
    raw = json.loads(EXPECTED_PATH.read_text())
    return {
        key: {"sha256": v["sha256"], "statuses": unpack_statuses(v["statuses"])}
        for key, v in raw.items()
    }


def expected_outputs(expected: dict, key: str) -> int:
    """Number of outputs a report for this config is checked on."""
    return len(expected[key]["statuses"]) + 1


def check_report(expected: dict, key: str, doc: dict) -> tuple[int, int, list[str]]:
    """(attempted, wrong, notes) for one report: each check status is
    one output and the report bytes, timings removed, are one more."""
    want = expected[key]
    digest, statuses = report_digest(doc)
    ids = set(want["statuses"]) | set(statuses)
    wrong_ids = sorted(i for i in ids if statuses.get(i) != want["statuses"].get(i))
    wrong = len(wrong_ids) + (digest != want["sha256"])
    notes = [f"{key}: {i} is {statuses.get(i)}, expected {want['statuses'].get(i)}" for i in wrong_ids]
    if digest != want["sha256"]:
        notes.append(f"{key}: report bytes differ from the frozen report")
    return len(ids) + 1, wrong, notes


def kunneth(tags: tuple[str, ...]) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Betti table of the tensor product of the single-factor quotients:
    homological indices add, degrees add, characters concatenate."""
    tables = [FACTOR_TABLES[t] for t in tags]
    rows: dict[int, list] = {}
    for combo in itertools.product(*(range(len(t)) for t in tables)):
        for parts in itertools.product(*(t[i] for t, i in zip(tables, combo))):
            shift = (sum(e for e, _ in parts), tuple(w for _, w in parts))
            rows.setdefault(sum(combo), []).append(shift)
    return [sorted(rows.get(i, [])) for i in range(max(rows) + 1)]


def check_betti(doc: dict) -> tuple[int, int, list[str]]:
    """(attempted, wrong, notes) for the deformed-f2 table: each Betti
    table entry is one output, and so are `complete` and `verified`."""
    want = kunneth(DEFORMED_TAGS)
    got = [[(e, tuple(w)) for e, w in row] for row in doc["rows"]]
    attempted, wrong, notes = 2, 0, []
    for i in range(max(len(want), len(got))):
        a = Counter(got[i] if i < len(got) else ())
        b = Counter(want[i] if i < len(want) else ())
        size = max(sum(a.values()), sum(b.values()))
        bad = size - sum((a & b).values())
        attempted += size
        wrong += bad
        if bad:
            notes.append(f"row {i}: got {sorted(a.elements())}, expected {sorted(b.elements())}")
    for flag in ("complete", "verified"):
        if doc.get(flag) is not True:
            wrong += 1
            notes.append(f"{flag} is {doc.get(flag)!r}, expected true")
    return attempted, wrong, notes
