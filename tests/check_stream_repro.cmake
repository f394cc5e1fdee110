# Regression: a stream capture is a function of the run. Two runs of the
# same faulted, rolled-back program write byte-identical --stream files —
# log lines (the rollback decisions) included, in the order they happened.
#
# Invoked via `cmake -DTCFRUN=<path> -DPROG=<bfs.tcf> -DOUT=<dir> -P`.

foreach(var TCFRUN PROG OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stream_repro: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT}")

foreach(run a b)
  execute_process(
    COMMAND "${TCFRUN}" "${PROG}" "--variant=balanced" "--bound=16"
            "--inject-faults=seed=3,flip=0.004,kill=0.004,memfail=0.002"
            "--recover=rollback" "--stream=${OUT}/${run}.stream"
            "--stream-every=8"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run}: expected exit 0, got ${rc}\n${out}${err}")
  endif()
endforeach()

file(READ "${OUT}/a.stream" capture)
if(NOT capture MATCHES "\"type\": \"log\", [^\n]*\"resil/recovery\"")
  message(FATAL_ERROR "capture holds no rollback log line")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}/a.stream"
          "${OUT}/b.stream"
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "two runs of the same command wrote different captures: "
                      "${OUT}/a.stream vs ${OUT}/b.stream")
endif()

message(STATUS "check_stream_repro: all assertions passed")
