# hifuzz-repro: v1
# name: fmax-signed-zero
# expect: ok
# note: fmin/fmax on equal operands of opposite sign.  The C library
# note: leaves the sign of the zero it returns unspecified, and the two
# note: interpreters once disagreed on fmax -0.0, +0.0 (+0 from one,
# note: -0 from the other) in a sanitizer build; HISA pins the second
# note: source (campaign seed 14821179121214229699, sig fsim-div:original)

.data
buf: .space 32
k:   .double 0.0
.text
_start:
  la   r4, buf
  la   r6, k
  fld  f1, 0(r6)      # +0.0
  fneg f2, f1         # -0.0
  fmax f3, f2, f1
  fmax f4, f1, f2
  fmin f5, f2, f1
  fmin f6, f1, f2
  fsd  f3, 0(r4)
  fsd  f4, 8(r4)
  fsd  f5, 16(r4)
  fsd  f6, 24(r4)
  halt
