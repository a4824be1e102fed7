"""Mutants of the package and the tests that must kill them.

Each entry of ``MUTANTS`` replaces one exact text, which must occur once in its
file under ``src/``, and names the tests expected to fail on it.

    python tests/mutants.py [--only ID ...]

copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory and
first checks that the named tests pass there unmutated.  Then it applies one
mutant at a time and runs its tests with ``-x`` and a timeout.  Only a failed
test kills a mutant: a timeout, a collection error or an unknown node id does
not.  A mutant that its tests miss is run against the whole of tier-1 before
it is reported as a survivor.  The exit status is 1 if a mutant survives, or
if an entry's old text is missing or occurs more than once, so a change that
rewrites a mutated line updates its entry.  The working tree is only read.
pytest does not collect this file, because its name does not start with
``test_``.
"""
from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run: about ten times tier-1 on one core


class Mutant(NamedTuple):
    id: str
    path: str  # under src/bpecsim/
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids under tests/
    rule: str  # the rule the mutant breaks


FRESH = "tests/test_block.py::test_hit_windows_are_fresh_in_every_realization"
ONE_ROW = "tests/test_block.py::test_a_block_of_one_equals_its_row_of_a_block"
FIRST_HITS = "tests/test_block.py::test_first_hits_equals_a_full_index"
ONE_LINK = "tests/test_block.py::test_one_user_hearing_every_slot_matches_the_reference"
ERASED = "tests/test_protocol.py::test_slot_erased_on_both_links_changes_nothing"
XOR_FEEDBACK = "tests/test_protocol.py::test_xor_feedback_dequeues_only_delivered_side"

MUTANTS = (
    # the batched round recursion (protocol._rounds)
    Mutant(
        "rounds-drain-from-round-start", "protocol.py",
        "channel.drain(u, t, q, spec.limit)", "channel.drain(u, base + spec.start, q, spec.limit)",
        (FRESH,), "a round's drains start where its raw2 ended, not where the round started",
    ),
    Mutant(
        "rounds-drain-from-raw1-end", "protocol.py",
        "            t = end\n", "            t = end if u == 0 else t\n",
        (FRESH,), "a round's drains start where its raw2 ended, not where raw1 ended",
    ),
    Mutant(
        "rounds-one-row-drain-from-raw1-end", "protocol.py",
        "            t = end\n", "            t = end if u == 0 or channel.rows != 1 else t\n",
        (FRESH,), "in a one-row block too, the drains start where raw2 ended",
    ),
    Mutant(
        "rounds-decode-masked-by-final-live", "protocol.py",
        "resolved[u] + where(live, drained, 0) == m", "where(live, resolved[u] + drained, 0) == m",
        ("tests/test_differential.py", "tests/test_exhaustive.py"),
        "a user's raw-phase packets count where its own raw phase ended, whatever the other's did",
    ),
    Mutant(
        "rounds-one-row-where-ignores-condition", "protocol.py",
        "    return x if c else y\n", "    return x\n",
        (ONE_ROW,), "a one-row block masks its ints as np.where masks the rows of a block",
    ),
    # the slot channel (protocol._SlotChannel)
    Mutant(
        "channel-one-row-drain-from-row-start", "protocol.py",
        "_first_hits(self._flat[u], t, limit, q)", "_first_hits(self._flat[u], 0, limit, q)",
        (FRESH,), "a one-row drain counts its link's slots from the drain's start",
    ),
    Mutant(
        "channel-one-row-drain-ignores-limit", "protocol.py",
        "_first_hits(self._flat[u], t, limit, q)", "_first_hits(self._flat[u], t, self._flat[u].size, q)",
        (ONE_ROW,), "a one-row drain stops at the round's limit",
    ),
    Mutant(
        "channel-one-row-got-from-row-start", "protocol.py",
        "np.count_nonzero(self._flat[u][t:end])", "np.count_nonzero(self._flat[u][:end])",
        (FRESH,), "a one-row raw phase counts its own link's slots in its own window",
    ),
    Mutant(
        "channel-stops-reused-across-rounds", "protocol.py",
        "        if limit != self._limit:\n", "        if self._limit is None:\n",
        (ONE_ROW,), "each round's limit is looked up in the useful index, not the first round's",
    ),
    Mutant(
        "channel-hits-end-late", "protocol.py",
        'mode="clip") + 1', 'mode="clip") + 2',
        ("tests/test_block.py::test_block_rows_equal_run_trial",),
        "a block's phase ends after its last slot, not one slot later",
    ),
    Mutant(
        "channel-drain-ignores-limit", "protocol.py",
        "_hits(link, t, q, np.searchsorted(link, self._stops(limit)[0]))", "_hits(link, t, q, link.size)",
        ("tests/test_block.py::test_block_rows_equal_run_trial",),
        "a block's drains stop at the round's limit",
    ),
    # the one-row search (protocol._first_hits)
    Mutant(
        "first-hits-no-step-offset", "protocol.py",
        "return k, lo + int(", "return k, int(",
        (FIRST_HITS,), "a hit's slot is its step's start plus its place in the step",
    ),
    Mutant(
        "first-hits-end-late", "protocol.py",
        "[need - 1]) + 1", "[need - 1]) + 2",
        (FIRST_HITS,), "a search ends after its k-th hit, not one slot later",
    ),
    Mutant(
        "first-hits-step-past-stop", "protocol.py",
        "        hi = min(stop, lo + _STEP)\n", "        hi = lo + _STEP\n",
        (FIRST_HITS,), "a search counts no slot at or after its stop",
    ),
    Mutant(
        "first-hits-short-end-at-first-hit", "protocol.py",
        "[last[0] : last[1]])[-1]", "[last[0] : last[1]])[0]",
        (FIRST_HITS,), "a search with fewer than k hits ends after the last of them",
    ),
    Mutant(
        "first-hits-short-end-at-start", "protocol.py",
        "    if last is None:\n", "    if True:\n",
        (FIRST_HITS,), "a search with fewer than k hits, but some, ends after the last of them",
    ),
    Mutant(
        "first-hits-short-step-to-row-end", "protocol.py",
        "row[last[0] : last[1]]", "row[last[0] :]",
        (FIRST_HITS,), "a search with fewer than k hits reads none past its stop",
    ),
    # the rest of the drivers and the sampler
    Mutant(
        "nofb-user-2-reads-link-1", "protocol.py",
        "enumerate((b1, b2)):", "enumerate((b1, b1)):",
        ("tests/test_block.py::test_nofb_decodes_with_exactly_as_many_slots_as_packets",),
        "a no-feedback user decodes from its own link's slots",
    ),
    Mutant(
        "reference-raw-reads-other-link", "protocol.py",
        "own, heard = links[u], links[2]", "own, heard = links[1 - u], links[2]",
        ("tests/test_reference_pins.py",), "a reference raw phase delivers on its sender's own link",
    ),
    # the reference driver: M8, M9, M10 and M13 of PR 31, then M1, M4, M6,
    # M11, M17, M18 and M21 of PR 34
    Mutant(
        "reference-side-1-dequeued-on-either-link", "protocol.py",
        "if heard1 and vpos1 < end1:", "if (heard1 or heard2) and vpos1 < end1:",
        (ONE_LINK,), "a multicast queue moves only when its own link hears the slot",
    ),
    Mutant(
        "reference-multicast-no-padding", "protocol.py",
        "side1 = v1[vpos1] if vpos1 < end1 else v1[-1] if end1 else None",
        "side1 = v1[vpos1] if vpos1 < end1 else None",
        ("tests/test_protocol.py::test_micro_trace_four_slots",),
        "an emptied queue is padded with its last resolved packet while the other drains",
    ),
    Mutant(
        "reference-bare-head-on-any-slot", "protocol.py",
        "            if links[u][t]:\n", "            if True:\n",
        (ERASED,), "a bare multicast head reaches its user only on a slot its link hears",
    ),
    Mutant(
        "reference-raw-end-late", "protocol.py",
        "t = heard[j - 1] + 1", "t = heard[j - 1] + 2",
        (ONE_LINK,), "a reference raw phase ends after its last heard slot, not one slot later",
    ),
    Mutant(
        "observer-delivered-ranked-below-overheard", "protocol.py",
        "        if rx[u].known[k] != _UNKNOWN:\n"
        "            statuses[pid] = PacketStatus.DELIVERED\n"
        "        elif rx[1 - u].overheard[k] != _UNKNOWN:\n"
        "            statuses[pid] = PacketStatus.OVERHEARD_ONLY\n",
        "        if rx[1 - u].overheard[k] != _UNKNOWN:\n"
        "            statuses[pid] = PacketStatus.OVERHEARD_ONLY\n"
        "        elif rx[u].known[k] != _UNKNOWN:\n"
        "            statuses[pid] = PacketStatus.DELIVERED\n",
        ("tests/test_protocol.py::test_engine_with_no_packets_for_user_1",),
        "a packet its own receiver holds is DELIVERED, whoever else overheard it",
    ),
    Mutant(
        "observer-status-reads-own-overheard", "protocol.py",
        "elif rx[1 - u].overheard[k] != _UNKNOWN:", "elif rx[u].overheard[k] != _UNKNOWN:",
        (ERASED,), "a packet is OVERHEARD_ONLY where the other user's receiver overheard it",
    ),
    Mutant(
        "observer-multicast-drops-vpos", "protocol.py",
        "            engine.vpos[:] = vpos1, vpos2\n            if vpos1 == end1",
        "            if vpos1 == end1",
        (XOR_FEEDBACK,), "an observed multicast writes the queue heads back after every slot",
    ),
    Mutant(
        "reference-empty-raw2-kept-open", "protocol.py",
        "            if self.q[1]:\n", "            if True:\n",
        ("tests/test_protocol.py::test_engine_with_no_packets_ends_every_stage_at_its_start",),
        "a raw phase with no packets ends where the phase before it ended",
    ),
    Mutant(
        "observer-raw-ends-one-packet-early", "protocol.py",
        "if engine.pos[u] == end:", "if engine.pos[u] == end - 1:",
        ("tests/test_acceptance.py::test_criterion_10",),
        "an observed raw phase ends when its last packet is heard",
    ),
    Mutant(
        "observer-v-2-given-1-reads-user-1", "protocol.py",
        "return self._waiting(2)", "return self._waiting(1)",
        (XOR_FEEDBACK,), "v_2_given_1 lists user 2's overheard packets",
    ),
    Mutant(
        "reference-later-round-indices-restart", "protocol.py",
        "first1 = sum(r.m1 for r in self._rounds[:i])", "first1 = 0",
        (ONE_LINK,), "packet indices run on across a plan's rounds",
    ),
    Mutant(
        "receiver-decode-skips-packet-0", "protocol.py",
        "_UNKNOWN not in self.known[:m], known", "_UNKNOWN not in self.known[1:m], known",
        ("tests/test_protocol.py",), "a receiver decodes only when every one of its packets is known",
    ),
    Mutant(
        "sampler-p1-piece-delivers", "channel.py",
        "received[:, lo:hi] = thr == 0", "received[:, lo:hi] = True",
        ("tests/test_channel.py",), "a piece of erasure probability 1 delivers no slot",
    ),
)


def _env(tree: Path) -> dict[str, str]:
    """The environment that imports the package from the copy, ahead of any
    installed one."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def _pytest(tree: Path, args: list[str], timeout: float) -> str:
    """Run pytest on the copy: 'pass', 'fail' where a test failed, 'timeout',
    or pytest's exit status where it could not run the tests (a collection
    error or an unknown node id).  The run gets its own process group, so a
    timeout also ends any worker it forked."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    with subprocess.Popen(
        cmd, cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as proc:
        try:
            status = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"
    return {0: "pass", 1: "fail"}.get(status, f"pytest exit status {status}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="ID", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = MUTANTS
    if args.only:
        unknown = set(args.only) - {m.id for m in MUTANTS}
        if unknown:
            parser.error(f"unknown mutant ids: {', '.join(sorted(unknown))}")
        mutants = tuple(m for m in MUTANTS if m.id in args.only)

    bad = []
    for m in mutants:
        count = (ROOT / "src" / "bpecsim" / m.path).read_text().count(m.old)
        if count != 1:
            bad.append(f"{m.id}: its old text occurs {count} times in {m.path}")
    if bad:
        print(*bad, sep="\n")
        return 1

    with tempfile.TemporaryDirectory(prefix="bpecsim-mutants-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        imported = subprocess.run(
            [sys.executable, "-c", "import bpecsim; print(bpecsim.__file__)"],
            env=_env(tree), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(imported).resolve().is_relative_to(tree.resolve()):
            print(f"the tests would import {imported}, not the copy")
            return 1
        killers = sorted({k for m in mutants for k in m.killers})
        outcome = _pytest(tree, killers, TIMEOUT_S)
        if outcome != "pass":
            print(f"the named tests do not pass on the unmutated tree ({outcome})")
            return 1
        survivors = []
        for m in mutants:
            target = tree / "src" / "bpecsim" / m.path
            source = target.read_text()
            target.write_text(source.replace(m.old, m.new))
            start = time.perf_counter()
            outcome = _pytest(tree, list(m.killers), TIMEOUT_S)
            if outcome == "pass" and _pytest(tree, ["tests"], TIMEOUT_S) == "fail":
                outcome = "fail, not by its named tests"
            target.write_text(source)
            killed = outcome.startswith("fail")
            print(f"{m.id:42s} {'killed' if killed else 'SURVIVED'} ({outcome})"
                  f" {time.perf_counter() - start:6.1f} s")
            if not killed:
                survivors.append(m)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    for m in survivors:
        print(f"survived: {m.id}, which breaks the rule: {m.rule}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
