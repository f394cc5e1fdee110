# Regression: a run that faults mid-way must still produce its telemetry.
#
# Invoked via `cmake -DTCFRUN=<path> -DTCFPROF=<path> -DTCFASM=<path>
# -DTCFDBG=<path> -DPROG=<fault_div.tcf> -DPROG_OK=<vecadd.tcf> -DOUT=<dir>
# -P`.
# Asserts the exit-code contract (1 = fault, 2 = exporter destination
# failure or usage error), that the metrics/trace documents record the
# fault in the run metadata, and that --post-mortem emits a
# tcfpn-postmortem-v1 document.

foreach(var TCFRUN TCFPROF TCFASM TCFDBG PROG PROG_OK OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_fault_export: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT}")

# 1. Faulting run with all three exporters: exit 1, documents still written.
execute_process(
  COMMAND "${TCFRUN}" "${PROG}"
          "--metrics-json=${OUT}/fault_metrics.json"
          "--trace-json=${OUT}/fault_trace.json"
          "--post-mortem=${OUT}/fault_pm.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "faulting run: expected exit 1, got ${rc}\n${out}${err}")
endif()
if(NOT err MATCHES "division by zero")
  message(FATAL_ERROR "faulting run: stderr lacks the fault message:\n${err}")
endif()

file(READ "${OUT}/fault_metrics.json" metrics)
if(NOT metrics MATCHES "\"fault\": \"division by zero\"")
  message(FATAL_ERROR "metrics document does not record the fault")
endif()
if(NOT metrics MATCHES "\"fault_class\": \"arith\"")
  message(FATAL_ERROR "metrics document does not classify the fault")
endif()
if(NOT metrics MATCHES "\"completed\": false")
  message(FATAL_ERROR "metrics document claims the faulted run completed")
endif()

file(READ "${OUT}/fault_trace.json" trace)
if(NOT trace MATCHES "\"fault\": \"division by zero\"")
  message(FATAL_ERROR "trace document does not record the fault")
endif()

file(READ "${OUT}/fault_pm.json" pm)
if(NOT pm MATCHES "\"schema\": \"tcfpn-postmortem-v1\"")
  message(FATAL_ERROR "post-mortem document lacks the schema tag")
endif()
if(NOT pm MATCHES "\"class\": \"arith\"")
  message(FATAL_ERROR "post-mortem document lacks the fault class")
endif()

# 2. Exporters accept '-' (stdout): the document lands on stdout, exit 1.
execute_process(
  COMMAND "${TCFRUN}" "${PROG}" "--post-mortem=-"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "stdout post-mortem: expected exit 1, got ${rc}")
endif()
if(NOT out MATCHES "tcfpn-postmortem-v1")
  message(FATAL_ERROR "stdout post-mortem: document not on stdout:\n${out}")
endif()

# 3. Unwritable exporter destination: exit 2 regardless of run outcome.
execute_process(
  COMMAND "${TCFRUN}" "${PROG}"
          "--metrics-json=${OUT}/no-such-dir/metrics.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unwritable metrics path: expected exit 2, got ${rc}")
endif()

execute_process(
  COMMAND "${TCFRUN}" "${PROG}"
          "--post-mortem=${OUT}/no-such-dir/pm.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unwritable post-mortem path: expected exit 2, got ${rc}")
endif()

# 4. A shape preset sets one spec per group; a later --groups that
#    disagrees is a usage error (exit 2), not an internal check.
execute_process(
  COMMAND "${TCFRUN}" "${PROG}" "--shape=gpu" "--groups=3"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--shape=gpu --groups=3: expected exit 2, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "group specs")
  message(FATAL_ERROR "--shape=gpu --groups=3: stderr lacks the diagnostic:\n${err}")
endif()

# 5. A hypercube joins a power-of-two number of groups: any other --groups
#    count is a usage error (exit 2) naming the topology, not an internal
#    check; a power-of-two count still runs.
execute_process(
  COMMAND "${TCFRUN}" "${PROG_OK}" "--topology=hypercube" "--groups=3"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--topology=hypercube --groups=3: expected exit 2, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "hypercube")
  message(FATAL_ERROR "--topology=hypercube --groups=3: stderr lacks the diagnostic:\n${err}")
endif()
execute_process(
  COMMAND "${TCFRUN}" "${PROG_OK}" "--topology=hypercube" "--groups=4"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--topology=hypercube --groups=4: expected exit 0, got ${rc}\n${err}")
endif()

# 6. tcfprof --what-if: a term given twice is a usage error (exit 2, no
#    report) rather than a silently dropped factor; distinct terms each get
#    a line and combine.
execute_process(
  COMMAND "${TCFPROF}" "${PROG_OK}" "--what-if=compute:2x"
          "--what-if=compute:3x" "--report=steps"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "repeated --what-if term: expected exit 2, got ${rc}\n${out}${err}")
endif()
if(NOT err MATCHES "tcfprof: --what-if: term compute given twice")
  message(FATAL_ERROR "repeated --what-if term: stderr lacks the diagnostic:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "repeated --what-if term: the report ran anyway:\n${out}")
endif()
execute_process(
  COMMAND "${TCFPROF}" "${PROG_OK}" "--what-if=compute:2x"
          "--what-if=net:0.5x" "--report=steps"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "distinct --what-if terms: expected exit 0, got ${rc}\n${err}")
endif()
foreach(want "\nwhat-if compute:2\\.00x -> [0-9]+ cycles"
             "\nwhat-if net:0\\.50x -> [0-9]+ cycles"
             "\nwhat-if combined -> [0-9]+ cycles")
  if(NOT out MATCHES "${want}")
    message(FATAL_ERROR "distinct --what-if terms: no match for '${want}' in:\n${out}")
  endif()
endforeach()

# 7. Only tcfrun injects faults: tcfasm, tcfprof and tcfdbg reject
#    --inject-faults and --recover as a usage error (exit 2) naming the
#    flag, instead of running fault-free as if the flag had been honoured.
foreach(tool "${TCFASM}" "${TCFPROF}" "${TCFDBG}")
  foreach(flag "--inject-faults=bogus" "--recover=off")
    string(REGEX REPLACE "=.*" "" name "${flag}")
    execute_process(
      COMMAND "${tool}" "${PROG_OK}" "${flag}"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${tool} ${flag}: expected exit 2, got ${rc}\n${out}${err}")
    endif()
    if(NOT err MATCHES "${name} is not supported")
      message(FATAL_ERROR "${tool} ${flag}: stderr lacks the diagnostic:\n${err}")
    endif()
  endforeach()
  execute_process(
    COMMAND "${tool}" "--help"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(out MATCHES "--inject-faults" OR out MATCHES "--recover")
    message(FATAL_ERROR "${tool} --help still lists the fault flags:\n${out}")
  endif()
endforeach()

message(STATUS "check_fault_export: all assertions passed")
