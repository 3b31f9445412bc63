#!/usr/bin/env bash
# The benchmark smoke step of tier1.yml: every workload for 1 s on seeds 1, 3 and 7, whose
# output checks must pass and whose run digests must match their pins, then the pinned CLI
# outputs.  Run it from any directory with `bash .github/workflows/smoke.sh`.  Where
# RUNNER_TEMP is unset (outside GitHub Actions), it writes to a fresh mktemp -d directory and
# removes it on exit.
set -eo pipefail
cd "$(dirname "$0")/../.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
pardual() { PYTHONPATH=src python -m pardual.cli "$@"; }
# same_pin WHAT DIGEST PIN: stop the step, naming both, when DIGEST is not PIN
same_pin() {
  if [ "$2" != "$3" ]; then
    echo "$1 $2, pinned $3"
    exit 1
  fi
}
# check_pin WHAT PIN COMMAND...: the sha256 of COMMAND's stdout must be PIN
check_pin() {
  local what=$1 pin=$2 digest
  shift 2
  digest=$("$@" | sha256sum | cut -d " " -f 1)
  same_pin "$what: sha256" "$digest" "$pin"
}
declare -A pinned=(
  [dual-corpus/1]=c3a6850a138c7d60b207e22b850f0ebcb273efb52e977962a478468a8576e258
  [dual-corpus/3]=cc1645b0492a687d8a87746dd1b9892bfb6708274ab7b055f322b1a6413cb1ee
  [dual-corpus/7]=66b3b9665cf157bf9035fb88c69cb8ff4ee375d0d003c5e6e87993e9a2afcfdd
  [plot-grid/1]=5f8eed7cc2b263a43eaf5945a5bfeffd32ed9ce2b1c6b219f06e74bfdabaadc2
  [plot-grid/3]=5f8eed7cc2b263a43eaf5945a5bfeffd32ed9ce2b1c6b219f06e74bfdabaadc2
  [plot-grid/7]=cfb19912fb26691b30ccff8922135490d8874dc0a2528fa037426ffd2d20942b
  [cli-mix/1]=c3cc7bb948d2303775b6648637d0d84b356bc31f65ac3b74aae444de0d4971b0
  [cli-mix/3]=3f43bdf92cb8efd1ebbba7f261dccc3861d43b8e6035d8ed98950f68768c4d0c
  [cli-mix/7]=415b44e4d2a8ed0e312a83a45e2656102ae5d09c265c2c16547b19d5bc00ca78
)
for seed in 1 3 7; do
  out="$RUNNER_TEMP/bench-smoke-$seed.out"
  python bench/run.py --workload all --seed "$seed" --seconds 1 | tee "$out"
  tail -n 1 "$out" | python -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'
  for workload in dual-corpus plot-grid cli-mix; do
    digest=$(awk -v want="$workload" '/^workload: / { workload = $2 } /^digest: / && workload == want { print $2 }' "$out")
    same_pin "$workload seed $seed: run digest" "$digest" "sha256:${pinned[$workload/$seed]}"
  done
done
# no workload or test reaches a degree-8 dual (grid lines of 113 nodes); pin its stdout
check_pin "dual of x1^8 + x2^8 - 1" 7fec725ce404f3b0d96a7e86088eda0129e0dc729d709c8f292f23d04fe833bc \
  pardual dual -- "x1^8 + x2^8 - 1"
# no test or workload reaches a dense dual above the quintic: pin a seeded dense
# sextic's stdout (degree 30, grid lines of 61 nodes, about 0.1 s)
check_pin "dual of the dense sextic" c70ff22dd25b42a161e1f3e07cba6e0a2c8700b757370ebc90cb23ae1651fef0 \
  pardual dual -- "-7*x1^6 + 7*x1^5*x2 - x1^4*x2^2 - 8*x1^3*x2^3 - 9*x1^2*x2^4 - 5*x1*x2^5 + 7*x2^6 + 3*x1^5 + 2*x1^4*x2 - 9*x1^3*x2^2 - x1^2*x2^3 + 7*x1*x2^4 - 3*x2^5 + 5*x1^4 + 9*x1^3*x2 + 9*x1^2*x2^2 - 6*x1*x2^3 - 3*x2^4 + 9*x1^3 - x1^2*x2 - 7*x1*x2^2 + 5*x2^3 + 2*x1^2 - 7*x1*x2 + 3*x2^2 + 5*x1 - x2 + 6"
# and a dense octic's, bench/workloads.py's dense_curve(random.Random(8), 8) (degree 56,
# grid lines of 113 nodes, about 1 s), pinned before the lift and the strip moved to
# integer exponent pairs
check_pin "dual of the dense octic" 2e4b0ba00f6bd6b8adfbb91dc2ba77cc478e8de64d4de4dedf4f4b17627f1840 \
  pardual dual -- "-7*x1^8 - 5*x1^7*x2 + 8*x1^6*x2^2 - 2*x1^5*x2^3 + 4*x1^4*x2^4 - 6*x1^3*x2^5 - 9*x1^2*x2^6 + 4*x1*x2^7 - 2*x2^8 - 3*x1^7 + 7*x1^6*x2 + 2*x1^5*x2^2 + 4*x1^4*x2^3 + 4*x1^3*x2^4 - 2*x1^2*x2^5 + 6*x1*x2^6 - 5*x2^7 - 7*x1^6 - 8*x1^5*x2 - 7*x1^4*x2^2 + 7*x1^3*x2^3 + 7*x1^2*x2^4 + 7*x1*x2^5 - 7*x2^6 - 6*x1^5 - 6*x1^4*x2 + 5*x1^3*x2^2 - 7*x1^2*x2^3 + 6*x1*x2^4 - 8*x2^5 - x1^4 + 8*x1^3*x2 + 4*x1^2*x2^2 - 9*x1*x2^3 - 3*x2^4 - x1^3 - 3*x1^2*x2 + 4*x1*x2^2 - 5*x2^3 + 7*x1^2 - 3*x1*x2 + 4*x2^2 + 8*x1 + 3*x2 - 2"
# no test or workload plots a dual above degree 6: pin the SVG of the degree-56 dual of
# x1^8 + x2^8 - 1 (19 list passes per column, about 0.8 s) and of a seeded dense
# quartic.  ROADMAP item 12 moves the first on purpose and then updates its pin
check_pin "plot of x1^8 + x2^8 - 1" ee1eb9ffcfd6f7e78392d95eb4c785f30aceb5fe79a73498d9c20f9e2224af3a \
  pardual plot -- "x1^8 + x2^8 - 1"
quartic="-9*x1^4 + 5*x1^3*x2 - 9*x1^2*x2^2 - 3*x1*x2^3 + 7*x2^4 + 4*x1^3 + 7*x1^2*x2 + 4*x1*x2^2 - 6*x2^3 - 6*x1^2 + 7*x1*x2 - x2^2 + 6*x1 - 7*x2 - 5"
check_pin "plot of the dense quartic" 8281d11bb1d926a1e8416e1bba808b7c811a658c72dab5488820b85cbda4eff3 \
  pardual plot -- "$quartic"
# a small circle off the window's centre: 235 of the source panel's 257 columns are
# certified to keep one sign and evaluated only where a crossed cell reads them; the pin
# was taken when every column was evaluated, so it holds each byte to that evaluation
check_pin "plot of the off-centre circle" 955075206e3c616bf723f754d569dfd08129352419acbc77cc4370d7596f6872 \
  pardual plot --window=-1,5,-2,4 -- "x1^2 + x2^2 - 1/16"
# the float oracle past cli-mix's conics and Sec. 3.2 cubic (about 0.9 s): verify of
# x1^8 + x2^8 - 1 (a degree-56 dual) and of the dense quartic, and the quartic's
# plot-envelope at spacing 2.5, whose samples come from scan lines along both axes
check_pin "verify of x1^8 + x2^8 - 1" 4f55a0064d9576592056104ed8f84513801524dc24b71f7bc2861d45624a5ae1 \
  pardual verify -- "x1^8 + x2^8 - 1"
check_pin "verify of the dense quartic" 6798cac32985c04946b187fc56a84fd4fb8172fb46b4a14a7c7bab817990796e \
  pardual verify -- "$quartic"
# no other pin skips a sample: the parabola 17*x2 = 16*x1^2 has its slope-1 tangent at
# (17/32, 17/64), on the scan line x2 = 17/64, so verify prints tested: 15 and skipped: 1
check_pin "verify of a parabola with a slope-1 sample" b70eb21dd13d6c25a353ca535303fb58e643388651701de23c4dd3b5e14f8d6f \
  pardual verify --window=0,1,0,1 --samples 16 -- "16*x1^2 - 17*x2"
check_pin "plot-envelope of the dense quartic" b882b79caa0a509c8c27a921a6cdebab128fe1f40897680f84fa868d30634262 \
  pardual plot-envelope --spacing=2.5 -- "$quartic"
# the off-origin singular curves of ROADMAP item 11's table, in table order, less
# Fig. 8 moved to (2, -1); their duals keep each singular point's line factor (about
# 0.6 s).  Item 11 removes those factors on purpose and then updates this pin
singular_duals() {
  for curve in "(x1-1)^3 + (x2-1)^2 - 3*(x1-1)*(x2-1)" "(x2-1)^2 - (x1-1)^3" \
      "(x2-1)^2 - (x1-1)^4 + (x1-1)^5" \
      "((x1-1)^2+(x2-1)^2)^2 + 3*(x1-1)^2*(x2-1) - (x2-1)^3" \
      "x2^2 - (x1^2-2)^2*(x1+3) + x2^4"; do
    pardual dual -- "$curve"
  done
}
check_pin "duals of the singular curves" 5b414862b7bd811978e6c0c0cbfef7a5510033b34b8fd044da571466746e890a \
  singular_duals
# dual_curve clears a curve's rationals at one point, so a rational curve and its
# integer multiple print the same stdout byte for byte
pardual dual -- "1/2*x1^3 - 1/3*x2^2 + x1*x2" > "$RUNNER_TEMP/rational.out"
pardual dual -- "3*x1^3 - 2*x2^2 + 6*x1*x2" > "$RUNNER_TEMP/integer.out"
if ! cmp "$RUNNER_TEMP/rational.out" "$RUNNER_TEMP/integer.out"; then
  echo "the dual of a rational curve differs from its integer multiple's"
  exit 1
fi
# the variables are x1, x2, x and y: eval refuses the paper's eta with exit 2, which
# pardual.cli's run() passes on through os._exit
status=0
pardual eval --at x1=1,eta=1 -- "x1*eta" || status=$?
if [ "$status" != 2 ]; then
  echo "eval of x1*eta: exit $status, expected 2"
  exit 1
fi
# exit_2_within_10s ARGS...: pardual ARGS must exit 2 within 10 s (timeout exits 124)
exit_2_within_10s() {
  local status=0
  PYTHONPATH=src timeout 10 python -m pardual.cli "$@" || status=$?
  if [ "$status" != 2 ]; then
    echo "pardual $*: exit $status, expected 2"
    exit 1
  fi
}
# every argument is checked before the elimination: this window is refused at once,
# where a handler that took the degree-12 dual first would run about 25 s
exit_2_within_10s verify --window=1,0,0,1 -- "x1^12 + x2^12 - 1"
# a rational follows the input grammar, so exponent notation is refused, not expanded
exit_2_within_10s eval --at x1=1e100000 -- "x1^64"
