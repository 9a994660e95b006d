#!/usr/bin/env python3
"""Fixture self-tests for tools/wsqlint.py.

Each fixture under fixtures/wsqlint/ starts with a marker comment:

    // wsqlint-fixture: dest=src/net/foo.cc expect=submit-drops-callback:1

The driver copies the fixture to `dest` inside a throwaway repo root,
runs wsqlint over it, and asserts the expected findings fire exactly
that many times (and nothing else fires). `expect=clean` asserts
silence. Known-bad snippets firing twice, or known-good snippets
firing at all, are how linter refactors silently change meaning — this
harness pins the contract.

Exit status: 0 all fixtures behave, 1 mismatch, 2 setup error.
"""

import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
TOOL = REPO / "tools" / "wsqlint.py"
FIXTURES = HERE / "fixtures" / "wsqlint"
MARKER = re.compile(r"wsqlint-fixture:\s*dest=(\S+)\s+expect=(\S+)")
FINDING = re.compile(r"^(\S+?):(\d+): \[([a-z-]+)\]")


def parse_expect(spec):
    if spec == "clean":
        return {}
    out = {}
    for part in spec.split(","):
        check, _, count = part.partition(":")
        out[check] = int(count) if count else 1
    return out


def run_fixture(fixture):
    first = fixture.read_text(encoding="utf-8").splitlines()[0]
    m = MARKER.search(first)
    if m is None:
        return [f"{fixture.name}: missing wsqlint-fixture marker"]
    dest, expect = m.group(1), parse_expect(m.group(2))
    with tempfile.TemporaryDirectory(prefix="wsqlint-fx-") as tmp:
        root = pathlib.Path(tmp)
        target = root / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(fixture, target)
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--root", str(root)],
            capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            return [f"{fixture.name}: wsqlint exited "
                    f"{proc.returncode}: {proc.stderr.strip()}"]
        got = {}
        for line in proc.stdout.splitlines():
            fm = FINDING.match(line)
            if fm:
                got[fm.group(3)] = got.get(fm.group(3), 0) + 1
        if got != expect:
            return [f"{fixture.name}: expected {expect or 'clean'}, "
                    f"got {got or 'clean'}\n"
                    + "\n".join("  " + l
                                for l in proc.stdout.splitlines())]
    return []


def main():
    if not TOOL.is_file():
        print(f"wsqlint_selftest: no tool at {TOOL}", file=sys.stderr)
        return 2
    fixtures = sorted(FIXTURES.glob("*.h")) + \
        sorted(FIXTURES.glob("*.cc"))
    if not fixtures:
        print(f"wsqlint_selftest: no fixtures in {FIXTURES}",
              file=sys.stderr)
        return 2
    failures = []
    for fixture in fixtures:
        failures.extend(run_fixture(fixture))
    for f in failures:
        print(f"FAIL {f}")
    print(f"wsqlint_selftest: {len(fixtures) - len(failures)}/"
          f"{len(fixtures)} fixtures OK", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
