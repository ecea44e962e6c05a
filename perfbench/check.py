"""Output check against reference outputs captured from the program.

Library workloads produce the program's round-record CSV. Its ``wall_ms``
column is dropped first; what remains is compared with a stored reference:

* ``round, acc, asr, accepted, malicious_selected, tp, fp, fn`` exactly, as
  the CSV prints them (9 significant digits);
* ``d_t`` and ``phi_t`` within ``RTOL`` relative (``ATOL`` absolute near 0),
  so a float64 rewrite of the long-double cosine kernels still passes.

``compare_matrix`` output is compared byte for byte. Full references exist
for a few seeds (``reference/<workload>-seed<n>.csv``); ``reference/table.json``
holds a compact form for a range of seeds: a sha256 of the exact columns and
fsums of ``d_t`` and ``phi_t`` (null where undefined). Every output, with or
without a reference, is also checked for internal consistency.
"""

import hashlib
import json
import math
import os

RTOL = 1e-6
ATOL = 1e-12

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
TABLE_PATH = os.path.join(REFERENCE_DIR, "table.json")

RECORD_HEADER = "round,acc,asr,d_t,phi_t,accepted,malicious_selected,tp,fp,fn"
EXACT = ("round", "acc", "asr", "accepted", "malicious_selected", "tp", "fp", "fn")
TOLERANT = ("d_t", "phi_t")
MATRIX_HEADER = "attack,defense,final_acc,final_asr"


def strip_wall_ms(csv_text: str) -> str:
    """The record CSV without its last (``wall_ms``) column."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


def records_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_records(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        raise ValueError(f"unexpected record header {lines[:1]!r}")
    cols = RECORD_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        if len(values) != len(cols):
            raise ValueError(f"bad record line {line!r}")
        rows.append(dict(zip(cols, values)))
    return rows


def _ids(text: str) -> list:
    return [int(x) for x in text.split(";")] if text else []


def _close(a, b) -> bool:
    """a equals b within tolerance; None and NaN (undefined) only equal each other."""
    a = float("nan") if a is None else float(a)
    b = float("nan") if b is None else float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def exact_digest(rows) -> str:
    """sha256 over the exactly-compared columns, one line per round."""
    text = "".join(",".join(r[c] for c in EXACT) + "\n" for r in rows)
    return records_digest(text)


def tolerant_sums(rows) -> dict:
    """fsum of each tolerance-compared column over rounds where it is defined."""
    out = {}
    for c in TOLERANT:
        vals = [float(r[c]) for r in rows]
        defined = [v for v in vals if not math.isnan(v)]
        out[c] = math.fsum(defined) if defined else float("nan")
    return out


def compact_reference(workload: str, output: str):
    """The table entry for one output: a digest, or a digest plus sums."""
    if workload == "compare_matrix":
        return {"digest": records_digest(output)}
    rows = parse_records(output)
    sums = {f"{c}_sum": None if math.isnan(v) else v for c, v in tolerant_sums(rows).items()}
    return {"exact": exact_digest(rows), **sums}


def compare_records(got: str, want: str) -> list:
    """Problems found comparing two wall_ms-free record CSVs round by round."""
    try:
        got_rows, want_rows = parse_records(got), parse_records(want)
    except ValueError as e:
        return [str(e)]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} records, reference has {len(want_rows)}"]
    problems = []
    for g, w in zip(got_rows, want_rows):
        for c in EXACT:
            if g[c] != w[c]:
                problems.append(f"round {w['round']}: {c} {g[c]!r} != reference {w[c]!r}")
        for c in TOLERANT:
            if not _close(g[c], w[c]):
                problems.append(f"round {w['round']}: {c} {g[c]} not within rtol {RTOL} of {w[c]}")
    return problems


def compare_compact(workload: str, output: str, entry: dict) -> list:
    got = compact_reference(workload, output)
    problems = []
    for key, want in entry.items():
        have = got.get(key)
        if key.endswith("_sum"):
            if not _close(have, want):
                problems.append(f"{key} {have!r} not within rtol {RTOL} of reference {want!r}")
        elif have != want:
            problems.append(f"{key} {have} != reference {want}")
    return problems


def check_consistency(workload: str, output: str, sim_cfg=None) -> list:
    """Invariants every correct output has, whatever the seed."""
    if workload == "compare_matrix":
        return _matrix_consistency(output)
    try:
        rows = parse_records(output)
    except ValueError as e:
        return [str(e)]
    problems = []
    if sim_cfg is not None and len(rows) != sim_cfg.rounds // sim_cfg.eval_every:
        problems.append(f"{len(rows)} records for {sim_cfg.rounds} rounds")
    for r in rows:
        where = f"round {r['round']}"
        acc, asr = float(r["acc"]), float(r["asr"])
        if not (0.0 <= acc <= 1.0 and 0.0 <= asr <= 1.0):
            problems.append(f"{where}: acc/asr out of [0, 1]: {acc}, {asr}")
        accepted, mal = _ids(r["accepted"]), _ids(r["malicious_selected"])
        tp, fp, fn = int(r["tp"]), int(r["fp"]), int(r["fn"])
        if accepted != sorted(set(accepted)) or mal != sorted(set(mal)):
            problems.append(f"{where}: id lists not sorted and distinct")
        if fn != len(set(accepted) & set(mal)) or tp + fn != len(mal):
            problems.append(f"{where}: tp/fn disagree with accepted and malicious_selected")
        if sim_cfg is not None:
            k = sim_cfg.clients_per_round
            if fp != (k - len(mal)) - (len(accepted) - fn):
                problems.append(f"{where}: fp disagrees with accepted")
            if any(i >= sim_cfg.malicious_count for i in mal):
                problems.append(f"{where}: malicious_selected outside the roster")
            if sim_cfg.force_c_per_round is not None and len(mal) != sim_cfg.force_c_per_round:
                problems.append(f"{where}: {len(mal)} malicious sampled, pinned {sim_cfg.force_c_per_round}")
    return problems


def _matrix_consistency(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != MATRIX_HEADER:
        return [f"unexpected matrix header {lines[:1]!r}"]
    body = [line.split(",") for line in lines[1:]]
    problems = []
    if [row[:2] for row in body] != sorted(row[:2] for row in body):
        problems.append("matrix rows not sorted by attack, defense")
    for row in body:
        if len(row) != 4 or not all(0.0 <= float(v) <= 1.0 for v in row[2:]):
            problems.append(f"bad matrix row {row!r}")
    return problems


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.csv")


def load_table() -> dict:
    with open(TABLE_PATH) as f:
        return json.load(f)


def check_output(workload: str, seed: int, output: str, table: dict, sim_cfg=None):
    """(problems, reference kind) for one operation's output.

    ``output`` is the wall_ms-free record CSV, or the matrix CSV. The
    reference kind is ``full``, ``table`` or ``none`` (consistency only).
    """
    problems = check_consistency(workload, output, sim_cfg)
    path = reference_path(workload, seed)
    if os.path.exists(path):
        with open(path, newline="") as f:
            want = f.read()
        if workload == "compare_matrix":
            if output != want:
                problems.append("compare_matrix.csv differs from the reference bytes")
        else:
            problems += compare_records(output, want)
        return problems, "full"
    entry = table.get(workload, {}).get(str(seed))
    if entry is not None:
        return problems + compare_compact(workload, output, entry), "table"
    return problems, "none"
