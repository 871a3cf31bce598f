#!/usr/bin/env bash
# ISA guard for the kernel engine's runtime dispatch (DESIGN.md §16).
#
#   simd_isa_guard.sh OBJDUMP LIB MODE
#
# Disassembles the static library LIB and checks where AVX code sits.
# AVX code is any VEX/EVEX-encoded instruction (AT&T mnemonics starting
# with `v`) or any use of a ymm or zmm register.
#
#   MODE=clones  a portable x86-64 build that carries the AVX2 clone: only
#                functions named `*_avx2` may hold AVX code, and at least
#                one must. Any other function is code the linker may hand
#                to a caller on a CPU without AVX2, where it dies of SIGILL.
#   MODE=none    a build that never dispatches (a forced BRICKX_SIMD_WIDTH):
#                no AVX code at all.
#
# Either way no fused multiply-add may appear: the kernels must round each
# multiply and each add as the naive kernels do. A build whose own flags
# target AVX (e.g. -march=native) fails the guard: its binaries are not
# portable, which is what the guard checks. Exits 77 (skipped) when
# OBJDUMP is not an executable.
set -euo pipefail

objdump=$1
lib=$2
mode=$3

if [[ -z $objdump || ! -x $objdump ]]; then
  echo "simd_isa_guard: objdump not found ('$objdump'); skipped"
  exit 77
fi

"$objdump" -d --no-show-raw-insn -C "$lib" | awk -v mode="$mode" '
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", fn)
    clone = fn ~ /_avx2[<(]/
    next
  }
  /^ *[0-9a-f]+:\t/ {
    split($0, col, "\t")
    ins = col[2]
    if (ins ~ /^vf(n)?m(add|sub)/) fma[fn] = ins
    if (ins ~ /^v/ || ins ~ /%[yz]mm[0-9]/) {
      if (clone && mode == "clones") clones[fn] = 1
      else if (!(fn in bad)) bad[fn] = ins
    }
  }
  END {
    status = 0
    for (f in bad) {
      where = "in a build that never dispatches"
      if (mode == "clones") where = "not an AVX2 clone"
      printf "simd_isa_guard: AVX code in %s, %s: %s\n", f, where, bad[f]
      status = 1
    }
    for (f in fma) {
      printf "simd_isa_guard: fused multiply-add in %s: %s\n", f, fma[f]
      status = 1
    }
    n = 0
    for (f in clones) n++
    if (mode == "clones" && n == 0) {
      print "simd_isa_guard: no AVX2 clone found (expected *_avx2 functions)"
      status = 1
    }
    if (status == 0)
      printf "simd_isa_guard: pass (mode %s, %d AVX2 clone functions)\n", mode, n
    exit status
  }'
