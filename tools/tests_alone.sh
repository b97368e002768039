#!/bin/sh
# Run every case of the given alcotest executables in a process of its
# own, one after another, never two at once, and name each case that
# fails. A case that passes in its executable's full run but fails here
# depends on what the cases before it left behind. Exits 1 when a case
# fails. `dune build @tests-alone` runs it over every tier-1 suite.
set -u
cases=0
failed=0
for exe in "$@"; do
  case $exe in */*) ;; *) exe=./$exe ;; esac
  # `list` prints "<suite>   <index>   <name>." per case, with no
  # newline after the last one.
  list=$({ "$exe" list --color=never; echo; } | sed -n 's/^\(.*[^ ]\)  *\([0-9][0-9]*\)   \(.*\)\.$/\1	\2	\3/p')
  while IFS='	' read -r suite index name; do
    [ -n "$suite" ] || continue
    cases=$((cases + 1))
    # The suite argument is a regular expression matched anywhere in a
    # suite's name: anchor it and quote its metacharacters.
    re=$(printf '%s' "$suite" | sed 's/[][\\.*^$+?(){}|/]/\\&/g')
    if ! "$exe" test "^$re\$" "$index" >/dev/null 2>&1; then
      failed=$((failed + 1))
      echo "FAIL $(basename "$exe") test '$suite' $index ($suite $name)"
    fi
  done <<EOF
$list
EOF
done
echo "tests-alone: $cases cases, each in its own process; $failed failed"
[ "$failed" -eq 0 ]
