; tcffuzz corpus v1
; policy: arbitrary
; boot: thickness=1 flows=1 esm=0
; expect: ok
; local: 0
; lanes: single-instruction/aligned balanced:3 multi-instruction single-operation/aligned config-single-operation/aligned fixed-thickness/aligned
; INT64_MIN / -1 overflows a 64-bit signed divide (the host traps): the
; quotient wraps to INT64_MIN and the remainder is 0, by register and by
; immediate divisor. Prints INT64_MIN, 0, INT64_MIN, 0 and stores the four
; results to cells 1024..1027.
  LDI r1, 1
  SHL r1, r1, 63
  LDI r2, -1
  DIV r3, r1, r2
  MOD r4, r1, r2
  DIV r5, r1, -1
  MOD r6, r1, -1
  PRINT r3
  PRINT r4
  PRINT r5
  PRINT r6
  ST r3, [r0+1024]
  ST r4, [r0+1025]
  ST r5, [r0+1026]
  ST r6, [r0+1027]
  HALT
