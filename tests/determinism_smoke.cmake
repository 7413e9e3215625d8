# Cross-sink byte-identity smoke test, run as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DOUT_DIR=<dir> -P determinism_smoke.cmake
# Runs the simulator with identical inputs and every sink enabled
# (--trace --timeseries --journal --chrome-trace), under --validate so the
# InvariantChecker is exercised end to end, and asserts that jobs.csv,
# trace.csv, timeseries.csv, the journal JSONL and the Chrome trace (simulated
# time only) are byte-identical across the runs —
# the determinism contract docs/ANALYSIS.md documents. Runs c and d add
# --profile: the self-profiler must be an observer (all four sinks stay
# byte-identical to the non-profiled runs), and profile.json's key sequence
# must be stable across same-seed runs (values may differ — wall times — but
# the schema may not). Finally exercises `elastisim profile` on the result.
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "determinism_smoke: missing -D${var}=...")
  endif()
endforeach()

foreach(run IN ITEMS a b c d)
  set(run_dir "${OUT_DIR}/run_${run}")
  file(MAKE_DIRECTORY ${run_dir})
  set(profile_args)
  if(run STREQUAL "c" OR run STREQUAL "d")
    set(profile_args --profile ${run_dir}/profile.json)
  endif()
  execute_process(
    COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${WORKLOAD}
            --out-dir ${run_dir} --trace --timeseries
            --journal ${run_dir}/journal.jsonl --chrome-trace ${run_dir}/chrome_trace.json
            --validate ${profile_args}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "determinism_smoke: run ${run} exited ${exit_code}\n"
                        "${stdout_text}\n${stderr_text}")
  endif()
  # --validate must report its verdict on success.
  if(NOT stdout_text MATCHES "all invariants hold")
    message(FATAL_ERROR "determinism_smoke: run ${run} printed no validation verdict:\n"
                        "${stdout_text}")
  endif()
endforeach()

# Sinks must be byte-identical between same-seed runs (a vs b) AND between
# non-profiled and profiled runs (a vs c): --profile observes, never perturbs.
foreach(other IN ITEMS b c)
  foreach(sink IN ITEMS jobs.csv trace.csv timeseries.csv journal.jsonl chrome_trace.json)
    set(file_a "${OUT_DIR}/run_a/${sink}")
    set(file_b "${OUT_DIR}/run_${other}/${sink}")
    if(NOT EXISTS ${file_a})
      message(FATAL_ERROR "determinism_smoke: ${file_a} was not written")
    endif()
    file(SHA256 ${file_a} hash_a)
    file(SHA256 ${file_b} hash_b)
    if(NOT hash_a STREQUAL hash_b)
      message(FATAL_ERROR "determinism_smoke: ${sink} differs between runs a and ${other}\n"
                          "  ${file_a}: ${hash_a}\n  ${file_b}: ${hash_b}")
    endif()
  endforeach()
endforeach()

# profile.json schema stability: same key sequence (names, order, row set) in
# both profiled runs. Values are wall times and may differ; keys may not.
foreach(run IN ITEMS c d)
  set(profile_file "${OUT_DIR}/run_${run}/profile.json")
  if(NOT EXISTS ${profile_file})
    message(FATAL_ERROR "determinism_smoke: ${profile_file} was not written")
  endif()
  file(READ ${profile_file} profile_text)
  string(JSON schema GET "${profile_text}" schema)
  if(NOT schema STREQUAL "elastisim-profile-v1")
    message(FATAL_ERROR "determinism_smoke: run ${run} profile schema is \"${schema}\"")
  endif()
  string(REGEX MATCHALL "\"[^\"]*\"[ \t]*:" keys_${run} "${profile_text}")
endforeach()
if(NOT keys_c STREQUAL keys_d)
  message(FATAL_ERROR "determinism_smoke: profile.json key sequence differs across runs\n"
                      "  run_c: ${keys_c}\n  run_d: ${keys_d}")
endif()

# The offline pretty-printer must render the phase table and coverage line.
execute_process(
  COMMAND ${ELASTISIM} profile ${OUT_DIR}/run_c/profile.json
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "determinism_smoke: `elastisim profile` exited ${exit_code}\n"
                      "${stdout_text}\n${stderr_text}")
endif()
if(NOT stdout_text MATCHES "phases cover" OR NOT stdout_text MATCHES "engine.dispatch")
  message(FATAL_ERROR "determinism_smoke: `elastisim profile` output missing the "
                      "coverage line or phase table:\n${stdout_text}")
endif()

message(STATUS "determinism_smoke: sinks byte-identical across plain and profiled runs; "
               "profile.json schema stable")
