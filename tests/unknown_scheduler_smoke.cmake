# Unknown --scheduler smoke test, run as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DOUT_DIR=<dir> -P unknown_scheduler_smoke.cmake
# An unknown scheduler name is a usage error: exit 2 with a diagnostic that
# names it and lists the known schedulers, before any output is written (no
# out-dir, no postmortem.json).
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "unknown_scheduler_smoke: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
execute_process(
  COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${WORKLOAD}
          --out-dir ${OUT_DIR} --scheduler bogus --trace
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "unknown_scheduler_smoke: exited ${exit_code}, expected 2\n"
                      "${stdout_text}\n${stderr_text}")
endif()
if(NOT stderr_text MATCHES "unknown scheduler \"bogus\"")
  message(FATAL_ERROR "unknown_scheduler_smoke: no diagnostic naming the scheduler:\n"
                      "${stderr_text}")
endif()
if(NOT stderr_text MATCHES "easy-malleable")
  message(FATAL_ERROR "unknown_scheduler_smoke: diagnostic lists no known schedulers:\n"
                      "${stderr_text}")
endif()
if(EXISTS ${OUT_DIR})
  message(FATAL_ERROR "unknown_scheduler_smoke: ${OUT_DIR} was created")
endif()

message(STATUS "unknown_scheduler_smoke: ok")
