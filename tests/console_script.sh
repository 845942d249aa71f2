#!/usr/bin/env bash
# End-to-end checks of the quadtile command: every subcommand runs, the
# default f = 24 AVC sweep reports its 86 candidates,
# `symmetry --generators` lists every group element of pq16 (8) and of the
# cube (24), the two flip families (flip_segment -> build -> verify ->
# classify) get their expected symmetry groups, `verify --expect` passes on
# pq16's AVC and exits 1 on a wrong count, and error cases exit 2 for a
# usage error and 1 for a realization that fails (pi/3 makes the delta^4
# vertex 4pi/3).  The import profile (PYTHONPROFILEIMPORTTIME) shows that
# realize loads quadtile.geometry and that the flip families load the angle
# solver but not the AVC search.
# Run it in an empty directory, which receives the maps and exports:
#   bash tests/console_script.sh                                  # installed
#   QUADTILE="python -m quadtile.cli" bash tests/console_script.sh  # source
# QUADTILE is split into words, so its parts must not contain spaces.
set -eux
qt() { ${QUADTILE:-quadtile} "$@"; }

qt construct pq-emt --f 16 -o pq16.json
qt construct subdivision --base cube -o cube.json
qt construct subdivision --base octahedron -o oct.json
cmp cube.json oct.json
qt verify pq16.json
qt verify pq16.json --expect 'αβ²×8,α²δ²×4,γ⁴×4,δ⁴×2'
code=0; qt verify pq16.json --expect 'αβ²×8,α²δ²×4,γ⁴×4,δ⁴×3' || code=$?; test "$code" -eq 1
qt avc-search --f 8 --max-degree 40
qt avc-search --f 24 > avc24.txt
grep -qx 'f=24: 86 feasible AVC(s)' avc24.txt
qt realize pq16.json --quad family --obj pq16.obj --svg pq16.svg
PYTHONPROFILEIMPORTTIME=1 qt realize pq16.json --quad family \
    > /dev/null 2> realize.imports
grep -q ' quadtile\.geometry$' realize.imports
qt symmetry pq16.json --generators > pq16.txt
test "$(grep -cE '^(preserving|reversing) order' pq16.txt)" -eq 8
qt symmetry cube.json --generators > cube.txt
grep -qx "T_h, order 24" cube.txt
test "$(grep -cE '^(preserving|reversing) order' cube.txt)" -eq 24
qt construct alphadelta --f 24 -o ad24.json
PYTHONPROFILEIMPORTTIME=1 qt construct alphadelta --f 24 \
    > /dev/null 2> ad24.imports
grep -q ' quadtile\.angles$' ad24.imports
test "$(grep -c ' quadtile\.combinatorics$' ad24.imports)" -eq 0
qt verify ad24.json
qt symmetry ad24.json > ad24.txt
grep -qx "D_2, order 4" ad24.txt
qt construct beta2delta --f 24 -o b2d24.json
qt verify b2d24.json
qt symmetry b2d24.json > b2d24.txt
grep -qx "C_2, order 2" b2d24.txt
code=0; qt verify missing.json || code=$?; test "$code" -eq 2
code=0; qt construct earth-map --f 7 || code=$?; test "$code" -eq 2
code=0; qt realize pq16.json || code=$?; test "$code" -eq 2
code=0; qt construct pq-emt --f 16 -o "" || code=$?; test "$code" -eq 2
code=0; qt realize pq16.json --quad family --obj bad.obj --svg "" \
    || code=$?; test "$code" -eq 2
test ! -s bad.obj
code=0; qt realize pq16.json --delta pi/3 --obj fail.obj || code=$?
test "$code" -eq 1
test ! -s fail.obj
