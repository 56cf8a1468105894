#!/usr/bin/env bash
# Run the command set whose outputs must rerun byte-identical into OUTDIR.
#
#   tools/rerun_outputs.sh OUTDIR
#
# Every command writes under a relative --out, so the echoed configuration
# is the same in any OUTDIR and two runs compare with `diff -r`. A numpy
# overflow or invalid value, or an exit code other than the one pinned,
# stops the script with a nonzero status.
set -eu
out=${1:?usage: tools/rerun_outputs.sh OUTDIR}
PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
export PYTHONPATH
export PYTHONWARNINGS=error::RuntimeWarning
mkdir -p "$out"
cd "$out"

# run a command that must exit with the code given first
exits() { local want=$1 rc=0; shift; "$@" || rc=$?; test "$rc" -eq "$want"; }

# solves at verify's default aspects
python -m affsurf solve --k 2,5,1000 --out solve
# solves from the square's start and from the limit's, up to 1e11
python -m affsurf solve --k 1.000001,1.5,2.5,1e11 --out solveends
# the default sweep and its limit fit
python -m affsurf sweep --out sweep
# a finite boundary and the limit in one SVG
python -m affsurf render --k 2 --k inf --out render
# a finite boundary as a point file
python -m affsurf render --k 3 --format txt --out render3
# top and bottom corner approaches run on in lock step after the short side ones end
python -m affsurf render --k 1e5 --format txt --out render1e5
# the benchmark's top band, where the eight corner approaches pool their chord panels
python -m affsurf render --k 1e6 --format txt --out render1e6
# chord pieces that need a second GK15 level (40 per cloud), going on from the pooled first level
python -m affsurf limit --out limit
# 88 spiral rays in lock step with the four mouth curves
python -m affsurf limit --theta-max 31.41592653589793 --out limit10pi
# the longest bridges, each starting on its whole arc; no first chord may overflow
python -m affsurf limit --theta-max 50.26548245743669 --out limit16pi
# the paper's convergence certificates at their defaults
python -m affsurf hausdorff --out hausdorff
# the property suite at its defaults
python -m affsurf verify --out verify
# two finite point files and the limit's in one run
python -m affsurf render --k 2 --k 7 --k inf --format txt --out render27
# the property suite at other aspects and another seed
python -m affsurf verify --k 1,3 --seed 4 --out verify13
# top and bottom axis crossings near 1.44/K, the upper one solved from the rectangle's centre on [0, 0.95 tail_radius]
python -m affsurf render --k 1e10 --format txt --out render1e10
# the square: no slits, solved in one residual
python -m affsurf render --k 1 --k 1.5 --format txt --out render1
# --k-grid read as start:stop:count
python -m affsurf sweep --k-grid 1e1:1e3:3 --out sweepgrid
# --k-grid read as an unsorted comma list
python -m affsurf sweep --k-grid 100,10,1000 --out sweeplist
# chord tolerances below the rounding of their sums; the GK15 round-off floor stops the bisection
python -m affsurf render --k 1e12 --format txt --out render1e12
# the longest chain of corner-approach stages (120), each starting where the previous one got to
python -m affsurf render --k 1e16 --format txt --out render1e16
# no right axis crossing at K = 1 + 1e-12: a numerical give-up (exit 3), not a traceback
exits 3 python -m affsurf render --k 1.000000000001 --format txt --out renderedge
# the shallowest cloud, in which every corner keeps its seam and sheet-1 flanks
python -m affsurf limit --theta-max 6.283185307179586 --out limit2pi
# a solver tolerance above verify's residual bound is a usage error (exit 2)
exits 2 python -m affsurf verify --tol-solver 1e-6 --tol-quad 1e-8 --out verifytol
# top and bottom approaches clipped 1e-303 from the corners: stage chains end at float64 resolution
python -m affsurf render --k 1e300 --format txt --density 30 --out render1e300
# the upper axis crossing at 1.44e-30, solved from the rectangle's centre
python -m affsurf render --k 1e30 --format txt --density 30 --out render1e30
# |beta| = 110: the residual's closed-form end shrinks its radius with |beta|
python -m affsurf solve --k 1e300 --out solvefar
# cutoff 3 against its alternative 2 pi moves the final distance 0.0296 by 0.0097, over a fifth: inconclusive (exit 1)
exits 1 python -m affsurf hausdorff --theta-max 3 --out hausdorff3
# near the square the corner holonomy's fixed points are off by 2.1e-11 against a 1e-12 bound (ROADMAP item 5): fails (exit 1)
exits 1 python -m affsurf verify --k 1.000001 --density 60 --out verifynearsquare
# far out the upper axis seed follows the solve's error (ROADMAP item 9), so the sides' reflection asymmetry
# reads wherever the accepted points sit within the tracking tolerance: 1.5e-8 against 1e-6 here
python -m affsurf verify --k 1e30 --density 60 --out verify1e30
# the same at the far end: 9.0e-7 against 1e-6, a thin margin that a change in where the tracker's
# accepted points sit within its tolerance can cross
python -m affsurf verify --k 1e300 --density 60 --out verify1e300
