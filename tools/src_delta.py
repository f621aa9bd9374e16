#!/usr/bin/env python3
"""Print a change's src/ line delta, split into code, comment and blank.

    python3 tools/src_delta.py [BASE [HEAD]]

Diffs src/ from BASE to HEAD. BASE defaults to HEAD (the last commit); with
no second argument the other side is the working tree, and untracked files
under src/ count as wholly added. Each added or removed line is classed by
its text: blank if it is empty after stripping whitespace, comment if it
then starts with `//`, code otherwise. A line inside a /* */ block counts
as code; src/ uses line comments only.

Examples:

    python3 tools/src_delta.py 62562d6^ 62562d6   # one commit
    python3 tools/src_delta.py origin/main          # branch + working tree

Not a gate: it only reports. Exit status 0, or git's own on a bad revision.
"""

import os
import subprocess
import sys

CLASSES = ("code", "comment", "blank")


def classify(text):
    stripped = text.strip()
    if not stripped:
        return "blank"
    if stripped.startswith("//"):
        return "comment"
    return "code"


def git(*args, cwd=None):
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True, errors="replace", cwd=cwd).stdout


def count_diff(diff_text, counts):
    # Header lines (`--- a/x`, `+++ b/x`) sit between `diff --git` and the
    # first hunk, so only lines after an `@@` are content; that keeps a
    # removed line whose text starts with `--` from reading as a header.
    in_hunk = False
    for line in diff_text.splitlines():
        if line.startswith("diff --git"):
            in_hunk = False
        elif line.startswith("@@"):
            in_hunk = True
        elif in_hunk and line[:1] in ("+", "-"):
            side = "added" if line[0] == "+" else "removed"
            counts[classify(line[1:])][side] += 1


def main():
    args = sys.argv[1:]
    if "-h" in args or "--help" in args:
        print(__doc__.strip())
        return 0
    if len(args) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    revisions = args if args else ["HEAD"]
    counts = {c: {"added": 0, "removed": 0} for c in CLASSES}
    try:
        root = git("rev-parse", "--show-toplevel").strip()
        diff = git("diff", "--no-color", "--no-ext-diff", "--no-renames",
                   "-U0", *revisions, "--", "src", cwd=root)
        count_diff(diff, counts)
        if len(revisions) == 1:
            untracked = git("ls-files", "--others", "--exclude-standard",
                            "--", "src", cwd=root).splitlines()
            for path in untracked:
                with open(os.path.join(root, path), encoding="utf-8",
                          errors="replace") as f:
                    for line in f:
                        counts[classify(line)]["added"] += 1
    except subprocess.CalledProcessError as error:
        sys.stderr.write(error.stderr)
        return error.returncode

    head = revisions[1] if len(revisions) == 2 else "working tree"
    print(f"src/ delta {revisions[0]} -> {head}")
    print(f"{'':<8} {'added':>8} {'removed':>8} {'net':>8}")
    counts["total"] = {side: sum(counts[c][side] for c in CLASSES)
                       for side in ("added", "removed")}
    for name, row in counts.items():
        net = row["added"] - row["removed"]
        print(f"{name:<8} {'+' + str(row['added']):>8} "
              f"{'-' + str(row['removed']):>8} {net:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
