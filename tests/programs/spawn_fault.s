; Three thickness-1 workers, one per group 1, 2 and 3: the parent spawns
; one per step and each worker stays ready for its first three steps (an
; MPADD ends a flow's step under the balanced variant too), so placement
; finds the lower groups busy. Each worker prints its group id and stores
; it; the worker on group 2 then divides by zero while group 3's worker is
; still running.
        LDI r1, 1
        SPAWN r1, worker
        MPADD r1, [r0+200]
        SPAWN r1, worker
        MPADD r1, [r0+200]
        SPAWN r1, worker
        MPADD r1, [r0+200]
        JOINALL
        PRINT 99
        HALT
worker: GID r2
        MPADD r1, [r0+201]
        MPADD r1, [r0+202]
        PRINT r2
        ST r2, [r2+100]
        SUB r3, r2, 2
        BNEZ r3, done
        DIV r4, r2, r0
done:   HALT
