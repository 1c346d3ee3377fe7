#!/usr/bin/env python3
"""Committed mutants: each guard the tests claim must be able to fire.

An entry of :data:`MUTANTS` is one source edit and the tests that must
catch it.  For every entry the runner copies ``src/`` to a temporary
directory, replaces the entry's exact old text (which must occur exactly
once in its file) with the new text, and runs only the named tests with
``PYTHONPATH`` on the copy.  The entry is *killed* when pytest reports a
failing test, and *survives* when every named test passes.  An old text
that no longer occurs exactly once is an error, not a skip, so a
refactor that moves a guarded line must update its entry here.

An entry marked ``control`` edits a docstring only, which no test can
see: the runner must report it as surviving.  That shows a survivor is
reported at all, and that the tests run on the mutated copy.

Usage, from the repository root (stdlib only; the tests need pytest)::

    python3 tools/mutants.py            # every entry
    python3 tools/mutants.py --list     # names, files and tests
    python3 tools/mutants.py NAME ...   # the named entries only

Exit status 0 when every mutant is killed and every control survives,
1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    #: path under the repository root, inside ``src/``
    file: str
    old: str
    new: str
    #: pytest node ids, at least one of which must fail
    tests: tuple[str, ...]
    control: bool = False


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "archive-write-in-complete",
        "src/repro/core/bssr.py",
        "                archive[done.pois] = done\n"
        "                update(done)\n",
        "                update(done)\n",
        (
            "tests/test_session_store.py::"
            "test_skyband_members_are_archived_and_restored_resumes_are_exact",
        ),
    ),
    Mutant(
        "bisect-dists-not-keys",
        "src/repro/core/search.py",
        "                if keys[positions[i]] > limit:\n",
        "                if self.dists[positions[i]] > limit:\n",
        (
            "tests/test_level_streams.py::"
            "test_modified_dijkstra_level_views_under_a_to_go_potential",
        ),
    ),
    Mutant(
        "distcache-key-drops-potential",
        "src/repro/core/distcache.py",
        "        return (source, spec.share_key, potential)\n",
        "        return (source, spec.share_key)\n",
        (
            "tests/test_distcache.py::"
            "test_streams_are_shared_only_under_the_same_potential",
        ),
    ),
    Mutant(
        "stored-length-range-check",
        "src/repro/core/serialize.py",
        "        if type(length) is not int"
        " or not 0 <= length < _MAX_GRAINS:\n",
        "        if type(length) is not int:\n",
        (
            "tests/test_session_store.py::"
            "test_malformed_route_row_names_the_field",
        ),
    ),
    Mutant(
        "archive-reference-check",
        "src/repro/core/serialize.py",
        "    if route is None:\n"
        '        raise _row_error(where, ref, "names no archived route")\n',
        "",
        (
            "tests/test_session_store.py::"
            "test_reference_missing_from_archive_names_the_field",
        ),
    ),
    Mutant(
        "unordered-orders-by-key-multiset",
        "src/repro/extensions/unordered.py",
        "        sequence = tuple(keys[i] for i in order)\n",
        "        sequence = tuple(sorted(map(repr, keys)))\n",
        (
            "tests/test_extensions_unordered.py::"
            "test_orders_with_equal_share_keys_run_once",
            "tests/test_extensions_unordered.py::"
            "test_property_unordered_matches_permutation_oracle",
        ),
    ),
    Mutant(
        "to-go-min-reserve-past-position-0",
        "src/repro/core/bssr.py",
        "            reserve = [bounds.to_go_min] + [0.0] * (n - 1)",
        "            reserve = [bounds.to_go_min] * n",
        ("tests/test_differential.py",),
    ),
    Mutant(
        "level-budgets-at-the-lowest-level",
        "src/repro/core/bssr.py",
        "            lambda semantic=semantic: threshold(semantic)"
        " - length - reserve\n",
        "            lambda semantic=semantic: threshold(semantics[-1])"
        " - length - reserve\n",
        ("tests/test_differential.py",),
    ),
    Mutant(
        "label-window-bisect-left-at-the-bound",
        "src/repro/graph/contraction.py",
        "            hi = bisect_right(dists, bound - g, lo)\n",
        '            hi = __import__("bisect").bisect_left('
        "dists, bound - g, lo)\n",
        (
            "tests/test_level_streams.py::"
            "test_lazy_label_stream_is_the_sorted_row_up_to_its_radius",
        ),
    ),
    Mutant(
        "label-stream-exhausted-by-growth",
        "src/repro/graph/contraction.py",
        "            if len(self.vids) == reachable:\n",
        "            if len(self.vids) == len(self._bucket.targets):\n",
        (
            "tests/test_session_store.py::"
            "test_ch_restored_pages_do_not_depend_on_stream_growth",
        ),
    ),
    Mutant(
        "replay-keeps-every-cut-child",
        "src/repro/core/bssr.py",
        "                if prunable(length, semantic, state, vid):\n"
        "                    kept.append((vid, length))\n",
        "                if True:\n"
        "                    kept.append((vid, length))\n",
        (
            "tests/test_session.py::"
            "test_concatenated_pages_match_brute_force_oracle",
            "tests/test_session_store.py::"
            "test_skyband_members_are_archived_and_restored_resumes_are_exact",
        ),
    ),
    Mutant(
        "replay-keeps-every-cut-completion",
        "src/repro/core/bssr.py",
        "                if length > threshold(semantic):\n"
        "                    skyline.rejects += 1\n",
        "                if True:\n"
        "                    skyline.rejects += 1\n",
        (
            "tests/test_session_store.py::"
            "test_skyband_members_are_archived_and_restored_resumes_are_exact",
        ),
    ),
    Mutant(
        "cursor-end-drops-a-stopped-parent",
        "src/repro/core/bssr.py",
        "                )\n"
        "        self._park(route, search, offsets, cut)\n",
        "                )\n"
        "        if cut:\n"
        "            self._park(route, search, offsets, cut)\n",
        (
            "tests/test_session.py::"
            "test_a_parent_whose_cursor_a_budget_stopped_resumes_exactly",
        ),
    ),
    Mutant(
        "witness-only-strictly-below-the-shortcut",
        "src/repro/graph/contraction.py",
        "                        if nd <= open_.get(b, -1.0):\n",
        "                        if nd < open_.get(b, -1.0):\n",
        ("tests/test_hierarchy_pin.py",),
    ),
    Mutant(
        "witness-search-stops-at-its-first-decision",
        "src/repro/graph/contraction.py",
        "            while heap and cap and open_:\n",
        "            while heap and cap and len(open_) == len(weights):\n",
        ("tests/test_hierarchy_pin.py",),
    ),
    Mutant(
        "docstring-only-control",
        "src/repro/core/bssr.py",
        "offered is archived first.",
        "offered is recorded in the archive first.",
        (
            "tests/test_session_store.py::"
            "test_skyband_members_are_archived_and_restored_resumes_are_exact",
        ),
        control=True,
    ),
)


class MutantError(Exception):
    """An entry that cannot be applied or run as written."""


def apply(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the tree at ``root`` in place."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise MutantError(
            f"{mutant.name}: the old text occurs {count} times in "
            f"{mutant.file}, not exactly once"
        )
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _pytest(tests: tuple[str, ...], src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def run(mutant: Mutant) -> str:
    """``"killed"`` or ``"survived"``; raises :class:`MutantError` when
    the entry does not apply or pytest stops without a verdict (a
    collection error, no test collected)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(
            ROOT / "src",
            copy / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        apply(mutant, copy)
        result = _pytest(mutant.tests, copy / "src")
    if result.returncode == 0:
        return "survived"
    if result.returncode == 1:
        return "killed"
    raise MutantError(
        f"{mutant.name}: pytest exited {result.returncode}\n"
        + result.stdout[-2000:]
        + result.stderr[-2000:]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (all)")
    parser.add_argument("--list", action="store_true", help="list entries")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown entries: {', '.join(sorted(unknown))}")
    if args.list:
        for m in chosen:
            kind = "control" if m.control else "mutant"
            print(f"{m.name}  [{kind}]  {m.file}  -> {' '.join(m.tests)}")
        return 0
    # the named tests must pass on the unmutated tree, or a kill says
    # nothing about the edit
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    baseline = _pytest(tests, ROOT / "src")
    if baseline.returncode != 0:
        print(baseline.stdout[-2000:] + baseline.stderr[-2000:])
        print("FAIL: the named tests do not pass on the unmutated tree")
        return 1
    bad = 0
    for m in chosen:
        try:
            verdict = run(m)
        except MutantError as exc:
            print(f"ERROR     {exc}")
            bad += 1
            continue
        expected = "survived" if m.control else "killed"
        ok = verdict == expected
        bad += not ok
        label = "control " if m.control else ""
        print(f"{'ok  ' if ok else 'FAIL'}  {verdict:<8}  {label}{m.name}")
    total = len(chosen)
    print(f"{total - bad} of {total} entries as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
