#!/bin/sh
# Soak the property tests: run every test executable that holds qcheck
# properties under N random QCHECK_SEEDs, each at TRIGVIEW_DOMAINS=1 and 4.
# Prints every failing (executable, seed, domains) with its failed cases
# and the command that reproduces it; exits 1 if any run failed.
#
#   test/soak.sh 50
#
# Tier-1 (`dune runtest`) draws one random seed per executable; this
# script is how many seeds get tried.
set -u

n=${1:-20}
case $n in
  '' | *[!0-9]*) echo "usage: $0 N   (N = number of random seeds)" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.." || exit 2
exes=$(grep -l 'QCheck' test/test_*.ml | sed 's|^test/||; s|\.ml$||')
targets=$(for e in $exes; do printf './test/%s.exe ' "$e"; done)
# shellcheck disable=SC2086
dune build $targets || exit 2

# the executables run from a copy in a scratch directory (alcotest writes
# its reports under ./_build there), so a build during the soak changes
# neither them nor is disturbed by them
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for e in $exes; do cp "_build/default/test/$e.exe" "$work/" || exit 2; done
log=$work/log
runs=0
failures=0
i=0
while [ "$i" -lt "$n" ]; do
  i=$((i + 1))
  seed=$(($(od -An -N4 -tu4 /dev/urandom | tr -d ' ') % 1000000000))
  for domains in 1 4; do
    for e in $exes; do
      runs=$((runs + 1))
      if ! (cd "$work" &&
            QCHECK_SEED=$seed TRIGVIEW_DOMAINS=$domains \
              timeout 600 "./$e.exe" >"$log" 2>&1); then
        failures=$((failures + 1))
        echo "FAIL $e seed=$seed domains=$domains"
        grep -E '^[> ] *\[FAIL\]' "$log" | sed 's/^/    /'
        echo "    reproduce: QCHECK_SEED=$seed TRIGVIEW_DOMAINS=$domains _build/default/test/$e.exe"
      fi
    done
  done
  echo "seed $i/$n ($seed): $failures failing run(s) so far"
done

echo "soak: $runs run(s), $failures failed"
[ "$failures" -eq 0 ]
