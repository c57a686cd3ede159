#!/usr/bin/env bash
# Dead public surface, found by a script (ROADMAP item 21). For every
# declaration in docs/api-surface.txt, counts the references to its name
# outside the file that declares it, with test code counted apart, and
# prints the declarations that only tests reach and those nothing reaches:
#
#   only-tests <file> <name>
#   unreached  <file> <name>
#
# A reference is an identifier token in a Rust file under src/, crates/
# (the vendored shims excepted), tests/, examples/ or bench/src/. Test code
# is everything under a tests/ directory, the item after each
# `#[cfg(test)]`, and comment lines (doc examples run as tests). `use`
# declarations are skipped: a re-export or an import is not a use. A
# method (a `fn` taking `self`) is matched only as a call (`.name(`) or a
# path (`::name`), so a field of the same name does not count; any other
# name matches wherever it appears. The counts are lexical: a name shared
# by two declarations (`new`, `get`, `conciliator`) is reached when either
# is, and a type reached only through values (a builder's return) looks
# unreached, so the allowlist says why each such entry stays.
#
# It then checks the list against docs/api-intended.txt, the allowlist
# (`<file> <name>: <reason>`, one reason per entry), and fails on any
# listed declaration the allowlist does not name, and on any allowlist
# entry the list does not name (its declaration was deleted, or non-test
# code now reaches it), so a reason cannot outlive its name.
set -euo pipefail
cd "$(dirname "$0")/.."

SURFACE=docs/api-surface.txt
ALLOWLIST=docs/api-intended.txt

list() {
    find src crates tests examples bench/src -name '*.rs' -not -path 'crates/vendor/*' \
        -not -path '*/target/*' -print0 | LC_ALL=C sort -z | xargs -0 awk -v surface="$SURFACE" '
    BEGIN {
        while ((getline line < surface) > 0) {
            file = line; sub(/: .*/, "", file)
            if (!match(line, /pub (async )?(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*/))
                continue
            decl = substr(line, RSTART, RLENGTH); name = decl; sub(/.* /, "", name)
            method = (decl ~ / fn / && line ~ /\((&(mut )?)?(mut )?self[,)]/)
            n++; dfile[n] = file; dname[n] = name; dmethod[n] = method
            wanted[name] = 1
        }
    }
    FNR == 1 { in_test_dir = (FILENAME ~ /(^|\/)tests\//); pending = 0; depth = 0; test_item = 0; in_use = 0 }
    {
        line = $0
        # The item after #[cfg(test)] is test code until its braces close
        # (or it ends with a semicolon before any brace opens).
        if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) { pending = 1; next }
        test = in_test_dir || test_item || pending
        if (pending || test_item) {
            opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
            if (pending && opens == 0 && line ~ /;[[:space:]]*$/) pending = 0
            else if (opens > 0 || test_item) {
                pending = 0; test_item = 1; depth += opens - closes
                if (depth <= 0) { test_item = 0; depth = 0 }
            }
        }
        if (in_use || line ~ /^[[:space:]]*(pub(\([a-z]+\))? )?use /) {
            in_use = (line !~ /;[[:space:]]*$/)
            next
        }
        if (line ~ /^[[:space:]]*\/\//) test = 1
        class = test ? "test" : "prod"
        rest = line
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            tok = substr(rest, RSTART, RLENGTH)
            if (tok in wanted) {
                words[tok, FILENAME, class]++
                before = substr(rest, 1, RSTART - 1); after = substr(rest, RSTART + RLENGTH)
                if (before ~ /::[[:space:]]*$/ || (before ~ /\.[[:space:]]*$/ && after ~ /^(\(|::<)/))
                    members[tok, FILENAME, class]++
            }
            rest = substr(rest, RSTART + RLENGTH)
        }
    }
    END {
        for (i = 1; i <= n; i++) {
            prod = 0; tests = 0
            for (key in words) {
                split(key, k, SUBSEP)
                if (k[1] != dname[i]) continue
                if (k[2] == dfile[i] && k[3] == "prod") continue
                count = dmethod[i] ? members[key] + 0 : words[key]
                if (k[3] == "prod") prod += count
                else tests += count
            }
            if (prod == 0) printf "%s %s %s\n", (tests > 0 ? "only-tests" : "unreached "), dfile[i], dname[i]
        }
    }' | LC_ALL=C sort -u
}

found=$(list)
echo "$found"
missing=$(echo "$found" | awk -v allow="$ALLOWLIST" '
    BEGIN {
        while ((getline line < allow) > 0) {
            if (line ~ /^[[:space:]]*(#|$)/) continue
            entry = line; sub(/:.*/, "", entry); kept[entry] = 1
        }
    }
    NF == 3 && !(($2 " " $3) in kept) { print }')
stale=$(echo "$found" | awk -v allow="$ALLOWLIST" '
    NF == 3 { listed[$2 " " $3] = 1 }
    END {
        while ((getline line < allow) > 0) {
            if (line ~ /^[[:space:]]*(#|$)/) continue
            entry = line; sub(/:.*/, "", entry)
            if (!(entry in listed)) print line
        }
    }')
if [[ -n "$missing" ]]; then
    echo >&2
    echo "unused api: these public declarations have no user outside tests," >&2
    echo "and $ALLOWLIST does not keep them:" >&2
    echo "$missing" >&2
    echo "Delete them, make them crate-private, or add them to $ALLOWLIST with a reason." >&2
fi
if [[ -n "$stale" ]]; then
    echo >&2
    echo "unused api: these $ALLOWLIST entries name a declaration the list" >&2
    echo "above no longer reports (deleted, or reached outside tests now):" >&2
    echo "$stale" >&2
    echo "Delete the entries." >&2
fi
if [[ -n "$missing" || -n "$stale" ]]; then
    exit 1
fi
echo "unused api: every listed declaration is kept on purpose ($(echo "$found" | grep -c .) entries)"
