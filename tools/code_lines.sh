#!/bin/sh
# Code lines of the OCaml sources (.ml and .mli) under lib/, one count
# per directory and a total: comments (nested, as OCaml has them) and
# blank lines are stripped. Run from the repository root, or pass the
# directory to count instead of lib.
set -eu
root=${1:-lib}
count() {
  find "$1" \( -name '*.ml' -o -name '*.mli' \) -print | sort | while read -r f; do
    perl -0777 -pe '1 while s/\(\*(?:(?!\(\*|\*\)).)*\*\)//gs' "$f"
    echo
  done | grep -cv '^\s*$' || true
}
for d in "$root"/*/; do
  printf '%-24s %6d\n' "${d%/}" "$(count "$d")"
done
printf '%-24s %6d\n' "$root" "$(count "$root")"
