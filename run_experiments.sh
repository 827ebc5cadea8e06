#!/bin/bash
# Regenerate all paper tables/figures, one experiment at a time.
BIN=./target/release/experiments
SCALE=8000
ALS=400
HERE=$(cd "$(dirname "$0")" && pwd)
OUT=$HERE/experiments_full.out
ERR=$HERE/experiments_full.err
: > "$OUT"; : > "$ERR"
for exp in table2 table3 table4 table5 table6 fig10 wcc fig9 fig7 fig12 fig8 fig11; do
  $BIN --scale $SCALE --als-scale $ALS "$exp" >> "$OUT" 2>> "$ERR"
done
echo ALL_DONE >> "$ERR"
