# End-to-end telemetry smoke test, run as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DOUT_DIR=<dir> -P telemetry_smoke.cmake
# Runs the simulator with --telemetry --chrome-trace --profile and validates
# that the emitted telemetry.json and Chrome trace are well-formed JSON with
# the documented top-level members (docs/OBSERVABILITY.md), that the
# scheduler counters agree with the profile's "scheduler" phase (which owns
# the scheduler's wall time), and that the Chrome trace is simulated time
# only.
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

foreach(var ELASTISIM PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "telemetry_smoke: missing -D${var}=...")
  endif()
endforeach()

set(trace_file "${OUT_DIR}/chrome_trace.json")
set(profile_file "${OUT_DIR}/profile.json")
execute_process(
  COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${WORKLOAD}
          --out-dir ${OUT_DIR} --telemetry --chrome-trace ${trace_file}
          --profile ${profile_file}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: simulator exited ${exit_code}\n"
                      "${stdout_text}\n${stderr_text}")
endif()

# --- telemetry.json ---------------------------------------------------------
file(READ "${OUT_DIR}/telemetry.json" telemetry_text)
string(JSON ignored ERROR_VARIABLE parse_error GET "${telemetry_text}" counters)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: telemetry.json has no counters object: ${parse_error}")
endif()
foreach(member gauges histograms spans)
  string(JSON ignored ERROR_VARIABLE parse_error GET "${telemetry_text}" ${member})
  if(parse_error)
    message(FATAL_ERROR "telemetry_smoke: telemetry.json missing '${member}': ${parse_error}")
  endif()
endforeach()
# The run processed events, so the engine counter must be present and positive.
string(JSON engine_events ERROR_VARIABLE parse_error
       GET "${telemetry_text}" counters engine.events)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: counters lacks engine.events: ${parse_error}")
endif()
if(engine_events LESS_EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: engine.events is ${engine_events}, expected > 0")
endif()
string(JSON invocations ERROR_VARIABLE parse_error
       GET "${telemetry_text}" counters scheduler.invocations)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: counters lacks scheduler.invocations: ${parse_error}")
endif()
if(invocations LESS_EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: scheduler.invocations is ${invocations}, expected > 0")
endif()

# --- profile.json: the phases that own the wall time -------------------------
file(READ "${profile_file}" profile_text)
string(JSON phase_count LENGTH "${profile_text}" phases)
math(EXPR last_phase "${phase_count} - 1")
foreach(i RANGE ${last_phase})
  string(JSON name GET "${profile_text}" phases ${i} name)
  string(JSON calls GET "${profile_text}" phases ${i} calls)
  set(phase_calls_${name} ${calls})
endforeach()
if(NOT phase_calls_scheduler EQUAL invocations)
  message(FATAL_ERROR "telemetry_smoke: profile has ${phase_calls_scheduler} scheduler "
                      "calls, telemetry ${invocations} invocations")
endif()
foreach(phase engine.dispatch fluid.solve)
  if(NOT phase_calls_${phase} GREATER 0)
    message(FATAL_ERROR "telemetry_smoke: profile phase ${phase} never ran")
  endif()
endforeach()

# --- chrome trace -----------------------------------------------------------
file(READ "${trace_file}" trace_text)
string(JSON event_count ERROR_VARIABLE parse_error LENGTH "${trace_text}" traceEvents)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: chrome trace has no traceEvents array: ${parse_error}")
endif()
if(event_count LESS_EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: traceEvents is empty")
endif()
string(JSON unit ERROR_VARIABLE parse_error GET "${trace_text}" displayTimeUnit)
if(parse_error OR NOT unit STREQUAL "ms")
  message(FATAL_ERROR "telemetry_smoke: displayTimeUnit is '${unit}' (${parse_error})")
endif()
# First event must carry the mandatory trace_event fields.
string(JSON first_phase ERROR_VARIABLE parse_error GET "${trace_text}" traceEvents 0 ph)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: traceEvents[0] lacks 'ph': ${parse_error}")
endif()

# Simulated time only: every event belongs to the cluster process (pid 1).
math(EXPR last_event "${event_count} - 1")
foreach(i RANGE ${last_event})
  string(JSON pid GET "${trace_text}" traceEvents ${i} pid)
  if(NOT pid EQUAL 1)
    message(FATAL_ERROR "telemetry_smoke: traceEvents[${i}] has pid ${pid}, expected 1")
  endif()
endforeach()

message(STATUS "telemetry_smoke: ok (${engine_events} events, ${event_count} trace events)")
