#!/bin/sh
# The README's desk cycle, each command in its own process, writing its
# files into the current directory and its console output to stdout:
# synth, train, eval multivariate and univariate, a five-block backbone
# (its receptive field reaches past the 64-row window) trained and
# evaluated, ablate, robustness and transfer.
#
# Usage: sh scripts/desk_cycle.sh SPEC CLI...
#   SPEC  the synth spec, e.g. scripts/specs/two_sine.json
#   CLI   the command that runs the package's CLI: `mff` when installed, or
#         `python -m mffftnet.cli` with PYTHONPATH set to a tree's src/
set -eu
spec=$1
shift
"$@" synth "$spec" two_sine.csv
"$@" train two_sine.csv --out model.bin --history history.json --profile desk --train.epochs 1
"$@" eval model.bin two_sine.csv --report report.json --eval.horizons 24
"$@" eval model.bin two_sine.csv --report report_uni.json --eval.horizons 24 --eval.mode univariate
"$@" train two_sine.csv --out model_pw.bin --profile desk --train.epochs 1 --backbone.num-blocks 5
"$@" eval model_pw.bin two_sine.csv --report report_pw.json --eval.horizons 24
"$@" ablate two_sine.csv --variants full,wo-fm --out ablation.json --profile desk --train.epochs 1
"$@" robustness two_sine.csv --kind missing --ratios 0.1 --out rob.json --profile desk --train.epochs 1
"$@" transfer two_sine.csv two_sine.csv --report transfer.json --profile desk --train.epochs 2
