#!/usr/bin/env python3
"""wsqlint: repo-local static checks that the compilers don't enforce.

Run from anywhere:  python3 tools/wsqlint.py  [--root <repo>]

Checks, in order of how often they have bitten this codebase:

  mutex-guard      Every wsq::Mutex / std::mutex member in annotated
                   directories must have at least one WSQ_GUARDED_BY /
                   WSQ_PT_GUARDED_BY peer naming it (a lock that guards
                   nothing is either dead or its state is unannotated).
  raw-std-mutex    Annotated directories must use wsq::Mutex, not raw
                   std::mutex / std::condition_variable members, so the
                   capability analysis can see every lock.
  manual-lock      No .lock()/.unlock() calls outside the RAII guard in
                   thread_annotations.h: manual pairing is how unlocks
                   get skipped on early returns.
  iostream         No #include <iostream> in src/ library code; streams
                   drag in static initializers and tempt debug prints.
                   Use the Status/Result plumbing or StrFormat.
  randomness       No rand()/srand() and no unseeded std::random_device
                   in src/ outside the fault harnesses: runs must be
                   reproducible from explicit seeds (common/random.h).
  include-guard    Headers use #ifndef WSQ_<PATH>_H_ guards matching
                   their path (or #pragma once, which we also accept).
  submit-drops-callback
                   SearchService::Submit overrides must not be able to
                   drop their callback: the SearchService contract says
                   every accepted request eventually completes, and a
                   dropped SearchCallback wedges whoever is parked on
                   the pump slot it was supposed to release. Every bare
                   `return;` inside a Submit body must invoke the
                   callback or hand it off (std::move / pass-through)
                   within the preceding lines, and the body must use
                   the callback at least once. Handoffs the matcher
                   cannot see (e.g. parked earlier on another branch)
                   carry a `wsqlint: allow(submit-drops-callback)`
                   comment.
  metric-naming    Metric names passed to MetricsRegistry::Get* and
                   MetricsEmitter::Emit* must be wsq_-prefixed
                   snake_case with the unit in the suffix: counters end
                   _total, histograms end _micros or _bytes (DESIGN.md
                   §12), and must belong to a registered component
                   family (METRIC_PREFIXES: wsq_reqpump_, wsq_fr_,
                   wsq_statusz_, ...). One naming scheme keeps the
                   /metrics dump greppable and dashboards portable.
  stale-suppression
                   Every `wsqlint: allow(<check>)` comment must still
                   suppress something: if the check would no longer
                   fire on that line the comment is reported as an
                   error. Suppressions that rot after refactors read as
                   "this was audited" when nothing is being audited.

The include-guard check also validates that the closing `#endif`
carries a `// WSQ_..._H_` trailing comment matching the guard, so a
reader at the bottom of a long header knows which scope just closed.

Checks that need whole-function context (cancellation-blind waits,
unbudgeted operator growth, lock order, ...) live in tools/wsqcheck.py,
which parses the sources and reads its own `wsqcheck: allow()`
comments.

Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Directories whose shared state must carry capability annotations.
ANNOTATED_DIRS = (
    "src/async",
    "src/net",
    "src/storage",
    "src/exec",
    "src/wsq",
    "src/obs",
)

# Files allowed to touch the raw primitives: the annotation layer itself.
PRIMITIVE_ALLOWLIST = ("src/common/thread_annotations.h",)

# Fault/chaos harnesses may use unseeded entropy on purpose.
RANDOMNESS_ALLOWLIST = ("src/common/random.h",)


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str,
                 message: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string literals, keeping
    line numbers stable so findings still point at the right line."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c in (quote, "\n") else " ")
        i += 1
    return "".join(out)


def in_dirs(rel: str, dirs) -> bool:
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:wsq::)?Mutex\s+(\w+)\s*;", re.M)
STD_PRIMITIVE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|condition_variable"
    r"|condition_variable_any)\b")
MANUAL_LOCK = re.compile(r"[.>]\s*(?:lock|unlock|try_lock)\s*\(")
GUARDED_BY = re.compile(r"WSQ_(?:PT_)?GUARDED_BY\(\s*(\w+)\s*\)")
SUBMIT_SIG = re.compile(
    r"\bSubmit\s*\(\s*SearchRequest\s+\w+\s*,\s*"
    r"SearchCallback\s+(\w+)\s*\)\s*(?:override\s*)?\{")
SUBMIT_SUPPRESS = "wsqlint: allow(submit-drops-callback)"
METRIC_CALL = re.compile(
    r"\b(GetCounter|GetGauge|GetHistogram"
    r"|EmitCounter|EmitGauge|EmitHistogram)\s*\(\s*\"")
METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*$")
# Registered metric families: every production series belongs to one
# component namespace so the /metrics dump groups naturally. A new
# component registers its prefix here (one line, reviewed) rather than
# minting ad-hoc names.
METRIC_PREFIXES = (
    "wsq_admission_",
    "wsq_buffer_pool_",
    "wsq_circuit_",
    "wsq_external_",
    "wsq_fr_",          # flight recorder + postmortems
    "wsq_mem_",
    "wsq_query_",
    "wsq_reqpump_",
    "wsq_result_cache_",
    "wsq_shard_",
    "wsq_spill_",
    "wsq_statusz_",     # introspection surface
    "wsq_wal_",
)
METRIC_EXACT = ("wsq_queries_total",)
RAND_CALL = re.compile(r"(?<![\w:])s?rand\s*\(")
RANDOM_DEVICE = re.compile(r"std::random_device\b")
INCLUDE_IOSTREAM = re.compile(r'#\s*include\s*<iostream>')


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# Checks a `wsqlint: allow(<name>)` comment may legitimately suppress.
SUPPRESSIBLE = ("submit-drops-callback",)
ALLOW_RE = re.compile(r"wsqlint:\s*allow\(([a-z][a-z0-9-]*)\)")


class Allows:
    """Per-file `wsqlint: allow()` comments with use tracking, so
    suppressions that no longer suppress anything surface as
    stale-suppression findings instead of rotting silently."""

    def __init__(self, raw: str) -> None:
        self.by_line: dict[int, list] = {}
        self.all: list = []
        for i, text in enumerate(raw.splitlines(), start=1):
            for m in ALLOW_RE.finditer(text):
                entry = [i, m.group(1), False]  # line, check, used
                self.by_line.setdefault(i, []).append(entry)
                self.all.append(entry)

    def suppressed(self, line: int, check: str) -> bool:
        """Allow() for `check` on the finding line or the line above.
        Call only once a finding WOULD fire — that is what keeps the
        used-flags honest for the stale check."""
        hit = False
        for probe in (line, line - 1):
            for entry in self.by_line.get(probe, []):
                if entry[1] == check:
                    entry[2] = True
                    hit = True
        return hit

    def stale(self, path: pathlib.Path) -> list:
        out = []
        for line, check, used in self.all:
            if used:
                continue
            if check not in SUPPRESSIBLE:
                out.append(Finding(
                    path, line, "stale-suppression",
                    f"allow({check}) names a check wsqlint cannot "
                    f"suppress; suppressible: {', '.join(SUPPRESSIBLE)}"))
            else:
                out.append(Finding(
                    path, line, "stale-suppression",
                    f"allow({check}) no longer suppresses anything "
                    "here — the check would not fire on this line; "
                    "delete the comment"))
        return out


def check_file(root: pathlib.Path, path: pathlib.Path):
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments(raw)
    allows = Allows(raw)
    findings = []

    in_src = rel.startswith("src/")
    annotated = in_dirs(rel, ANNOTATED_DIRS)
    is_header = rel.endswith(".h")

    # --- mutex-guard: every Mutex member needs a GUARDED_BY peer -----
    if annotated and is_header and rel not in PRIMITIVE_ALLOWLIST:
        guarded_names = set(GUARDED_BY.findall(code))
        for m in MUTEX_MEMBER.finditer(code):
            name = m.group(1)
            if name not in guarded_names:
                findings.append(Finding(
                    path, line_of(code, m.start()), "mutex-guard",
                    f"Mutex member '{name}' has no WSQ_GUARDED_BY({name}) "
                    "peer; annotate the state it protects (or delete it)"))

    # --- raw-std-mutex ----------------------------------------------
    if annotated and rel not in PRIMITIVE_ALLOWLIST:
        for m in STD_PRIMITIVE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "raw-std-mutex",
                f"std::{m.group(1)} is invisible to the capability "
                "analysis; use wsq::Mutex / wsq::CondVar "
                "(common/thread_annotations.h)"))

    # --- manual-lock ------------------------------------------------
    if annotated and rel not in PRIMITIVE_ALLOWLIST:
        for m in MANUAL_LOCK.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "manual-lock",
                "manual lock()/unlock() call; use the MutexLock RAII "
                "guard (its Lock()/Unlock() members handle re-locking)"))

    # --- submit-drops-callback --------------------------------------
    # Scans each SearchService::Submit override body: every bare
    # `return;` needs the callback invoked or handed off nearby, and
    # the callback must be used at least once overall. Heuristic, not
    # flow analysis — the suppression comment covers handoffs on
    # another branch (e.g. a callback parked in a container earlier).
    if in_src:
        for m in SUBMIT_SIG.finditer(code):
            cb = m.group(1)
            # Brace-match the function body.
            depth, i = 1, m.end()
            while i < len(code) and depth > 0:
                if code[i] == "{":
                    depth += 1
                elif code[i] == "}":
                    depth -= 1
                i += 1
            body = code[m.end():i]
            body_start_line = line_of(code, m.end())
            cb_use = re.compile(
                r"\b" + cb + r"\s*\("        # invocation
                r"|\bmove\s*\(\s*" + cb + r"\s*\)"  # handoff by move
                r"|[,(]\s*" + cb + r"\s*[,)]")      # pass-through arg
            sig_line = line_of(code, m.start())
            if not cb_use.search(body):
                findings.append(Finding(
                    path, sig_line, "submit-drops-callback",
                    f"Submit never invokes or hands off its callback "
                    f"'{cb}'; every accepted request must eventually "
                    "complete (net/search_service.h)"))
                continue
            for r in re.finditer(r"\breturn\s*;", body):
                line = body_start_line + body.count("\n", 0, r.start())
                # Look back a handful of lines for a callback use.
                back = body[:r.start()].splitlines()[-8:]
                if cb_use.search("\n".join(back)):
                    continue
                if allows.suppressed(line, "submit-drops-callback"):
                    continue
                findings.append(Finding(
                    path, line, "submit-drops-callback",
                    f"bare 'return;' in Submit with no use of callback "
                    f"'{cb}' in the preceding lines; complete the "
                    "request on every path or annotate with "
                    f"'{SUBMIT_SUPPRESS}'"))

    # --- iostream ---------------------------------------------------
    if in_src:
        for m in INCLUDE_IOSTREAM.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "iostream",
                "<iostream> in library code; report errors via "
                "Status/Result, format with common/strings.h"))

    # --- randomness -------------------------------------------------
    if in_src and rel not in RANDOMNESS_ALLOWLIST:
        for m in RAND_CALL.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "randomness",
                "rand()/srand() is not reproducible; use wsq::Rng with "
                "an explicit seed"))
        for m in RANDOM_DEVICE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "randomness",
                "std::random_device draws unseeded entropy; plumb a "
                "seed through the options struct instead"))

    # --- metric-naming ----------------------------------------------
    # strip_comments keeps offsets and quote characters but blanks
    # string contents, so the literal is matched in `code` and its text
    # read back from `raw` at the same positions.
    if in_src:
        for m in METRIC_CALL.finditer(code):
            kind = m.group(1)
            open_quote = m.end() - 1
            close_quote = code.find('"', open_quote + 1)
            if close_quote < 0:
                continue
            name = raw[open_quote + 1:close_quote]
            line = line_of(code, m.start())
            if not METRIC_NAME.match(name):
                findings.append(Finding(
                    path, line, "metric-naming",
                    f"metric name '{name}' is not snake_case "
                    "([a-z][a-z0-9_]*)"))
                continue
            problem = None
            if not name.startswith("wsq_"):
                problem = "must start with 'wsq_'"
            elif kind in ("GetCounter", "EmitCounter"):
                if not name.endswith("_total"):
                    problem = "counters end in '_total'"
            elif kind in ("GetHistogram", "EmitHistogram"):
                if not (name.endswith("_micros")
                        or name.endswith("_bytes")):
                    problem = ("histograms carry their unit: "
                               "'_micros' or '_bytes'")
            elif kind in ("GetGauge", "EmitGauge"):
                if name.endswith("_total"):
                    problem = ("'_total' marks a monotonic counter; "
                               "gauges go up and down")
            if (problem is None and name not in METRIC_EXACT
                    and not name.startswith(METRIC_PREFIXES)):
                problem = ("unregistered metric family; add the "
                           "component prefix to METRIC_PREFIXES in "
                           "tools/wsqlint.py")
            if problem is not None:
                findings.append(Finding(
                    path, line, "metric-naming",
                    f"metric name '{name}': {problem} (DESIGN.md §12)"))

    # --- include-guard ----------------------------------------------
    if is_header and in_src:
        if "#pragma once" not in code:
            expected = ("WSQ_" +
                        rel[len("src/"):]
                        .replace("/", "_")
                        .replace(".", "_")
                        .upper() + "_")
            guard = re.search(r"#\s*ifndef\s+(\S+)\s*\n\s*#\s*define\s+(\S+)",
                              code)
            if guard is None:
                findings.append(Finding(
                    path, 1, "include-guard",
                    f"header has neither '#ifndef {expected}' guard nor "
                    "#pragma once"))
            elif guard.group(1) != expected or guard.group(2) != expected:
                findings.append(Finding(
                    path, line_of(code, guard.start()), "include-guard",
                    f"guard '{guard.group(1)}' should be '{expected}' "
                    "(derived from the header's path)"))
            else:
                # The closing #endif must say which guard it closes —
                # at the bottom of a long header that comment is the
                # only context a reader has. Match against `raw`:
                # the comment is what is being checked.
                endifs = [mm for mm in
                          re.finditer(r"#\s*endif[^\n]*", raw)]
                if endifs:
                    last = endifs[-1]
                    want = f"#endif  // {expected}"
                    if last.group(0).rstrip() != want:
                        findings.append(Finding(
                            path, line_of(raw, last.start()),
                            "include-guard",
                            f"closing '#endif' must read '{want}' "
                            "(trailing comment names the guard it "
                            "closes)"))

    findings.extend(allows.stale(path))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: wsqlint's "
                             "grandparent directory)")
    args = parser.parse_args()

    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    if not src.is_dir():
        print(f"wsqlint: no src/ under {root}", file=sys.stderr)
        return 2

    files = sorted(p for p in src.rglob("*")
                   if p.suffix in (".h", ".cc") and p.is_file())
    findings = []
    for path in files:
        findings.extend(check_file(root, path))

    for f in findings:
        print(f)
    summary = (f"wsqlint: {len(findings)} finding(s) in "
               f"{len(files)} file(s)")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
