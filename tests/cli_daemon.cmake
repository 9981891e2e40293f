# Daemon byte-identity contract (docs/SERVICE.md): a tool invocation
# served by tdtd over --connect must produce the same stdout, the same
# stderr, and the same exit code as the standalone run — for successes,
# for --help, for io errors, for corrupt inputs under every --on-error
# policy, and for injected faults. Plus the daemon lifecycle: detach
# readiness, memo-warm repeats, the gtracer local-only refusal, fault
# survival, and clean shutdown with the socket unlinked.
file(MAKE_DIRECTORY ${WORKDIR})
set(SOCK ${WORKDIR}/tdtd.sock)

function(check_rc what expected actual)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR "${what}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

# Run `tool args...` standalone and again through the daemon; all three
# observable channels must agree byte-for-byte, and the exit code must
# be the expected one.
function(run_pair what expect_rc tool)
  execute_process(
    COMMAND ${tool} ${ARGN}
    RESULT_VARIABLE local_rc OUTPUT_VARIABLE local_out
    ERROR_VARIABLE local_err)
  execute_process(
    COMMAND ${tool} --connect ${SOCK} ${ARGN}
    RESULT_VARIABLE rpc_rc OUTPUT_VARIABLE rpc_out ERROR_VARIABLE rpc_err)
  if(NOT local_rc STREQUAL rpc_rc)
    message(FATAL_ERROR "${what}: exit codes diverge: local ${local_rc} "
                        "vs --connect ${rpc_rc}\nlocal stderr: ${local_err}\n"
                        "rpc stderr: ${rpc_err}")
  endif()
  if(NOT local_out STREQUAL rpc_out)
    message(FATAL_ERROR "${what}: stdout diverges\n=== local ===\n"
                        "${local_out}\n=== --connect ===\n${rpc_out}")
  endif()
  if(NOT local_err STREQUAL rpc_err)
    message(FATAL_ERROR "${what}: stderr diverges\n=== local ===\n"
                        "${local_err}\n=== --connect ===\n${rpc_err}")
  endif()
  check_rc("${what}" ${expect_rc} "${local_rc}")
endfunction()

# Sweep-style runs print wall-clock pipeline counters on stderr, so only
# stdout and the exit code are comparable across two executions (the
# same contract cli_smoke.cmake pins for --jobs 1 vs --jobs 4).
function(run_pair_stdout what expect_rc tool)
  execute_process(
    COMMAND ${tool} ${ARGN}
    RESULT_VARIABLE local_rc OUTPUT_VARIABLE local_out ERROR_QUIET)
  execute_process(
    COMMAND ${tool} --connect ${SOCK} ${ARGN}
    RESULT_VARIABLE rpc_rc OUTPUT_VARIABLE rpc_out ERROR_QUIET)
  if(NOT local_rc STREQUAL rpc_rc)
    message(FATAL_ERROR "${what}: exit codes diverge: local ${local_rc} "
                        "vs --connect ${rpc_rc}")
  endif()
  if(NOT local_out STREQUAL rpc_out)
    message(FATAL_ERROR "${what}: stdout diverges\n=== local ===\n"
                        "${local_out}\n=== --connect ===\n${rpc_out}")
  endif()
  check_rc("${what}" ${expect_rc} "${local_rc}")
endfunction()

# -- Inputs: clean trace, transformed counterpart, corrupt trace. -------------
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 1024 --out ${WORKDIR}/orig.out
  RESULT_VARIABLE rc)
check_rc("gtracer" 0 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out --rules ${RULES}
          --xform-out ${WORKDIR}/xform.out --size 32768 --block 32 --assoc 1
  RESULT_VARIABLE rc OUTPUT_QUIET)
check_rc("dinerosim --xform-out" 0 "${rc}")
file(READ ${WORKDIR}/orig.out trace_text)
string(APPEND trace_text
  "Z 7ff0001b0 8 main\n"
  "S nothex 8 main\n")
file(WRITE ${WORKDIR}/bad.out "${trace_text}")

# -- Daemon up: --detach parent exits 0 only once the socket accepts. ---------
execute_process(
  COMMAND ${TDTD} --socket ${SOCK} --workers 2 --queue 8
          --detach --pid-file ${WORKDIR}/tdtd.pid
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
check_rc("tdtd --detach" 0 "${rc}")
if(NOT out MATCHES "listening on")
  message(FATAL_ERROR "tdtd --detach readiness line missing: ${out}")
endif()
if(NOT EXISTS ${WORKDIR}/tdtd.pid)
  message(FATAL_ERROR "pid file not written")
endif()

execute_process(
  COMMAND ${TDTD} --socket ${SOCK} --rpc status
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
check_rc("tdtd --rpc status" 0 "${rc}")
if(NOT out MATCHES "tdtd: workers=2 queue=")
  message(FATAL_ERROR "status reply unexpected: ${out}")
endif()

# -- Byte-identity matrix. ----------------------------------------------------
run_pair("traceinfo" 0 ${TRACEINFO} ${WORKDIR}/orig.out)
run_pair("traceinfo --help" 0 ${TRACEINFO} --help)
run_pair("traceinfo missing file" 2 ${TRACEINFO} ${WORKDIR}/no_such.out)
run_pair("dinerosim single config" 0 ${DINEROSIM}
         --trace ${WORKDIR}/orig.out --size 32768 --block 32 --assoc 1
         --per-set)
# Semicolons are escaped so the values survive the trip through the
# helper's ${ARGN} list expansion as single arguments.
run_pair_stdout("dinerosim sweep" 0 ${DINEROSIM} --trace ${WORKDIR}/orig.out
         --sweep "assoc=1\;assoc=2\;size=8k,assoc=4\;block=64")
run_pair("tracediff" 1 ${TRACEDIFF}
         ${WORKDIR}/orig.out ${WORKDIR}/xform.out --summary)
run_pair_stdout("tdtune" 0 ${TDTUNE} ${WORKDIR}/orig.out --sweep "assoc=1")
run_pair("dinerosim corrupt strict" 2 ${DINEROSIM}
         --trace ${WORKDIR}/bad.out --size 4096)
run_pair("dinerosim corrupt skip" 1 ${DINEROSIM}
         --trace ${WORKDIR}/bad.out --size 4096 --on-error=skip)

# -- Fault injection through the daemon. A reader fault at --jobs 1 is
#    fully deterministic (fixed seed, single refill on a small trace), so
#    it rides the byte-identity matrix: the daemon-served request must
#    degrade exactly like the local run.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --out ${WORKDIR}/small.out
  RESULT_VARIABLE rc)
check_rc("gtracer small" 0 "${rc}")
run_pair("dinerosim reader.read skip" 1 ${DINEROSIM}
         --trace ${WORKDIR}/small.out --size 4096 --on-error=skip
         --fault-spec "seed=7\;reader.read:1:1")
run_pair("dinerosim reader.read strict" 2 ${DINEROSIM}
         --trace ${WORKDIR}/small.out --size 4096 --on-error=strict
         --fault-spec "seed=7\;reader.read:1:1")

# Parallel-pipeline faults (worker.throw, queue.push-delay) print
# wall-clock pipeline counters, so exact bytes vary run to run; the
# contract here is survival — the worker throw degrades the request to
# exit 1 with the recovery diagnostic in the relayed stderr, the
# injected queue delays leave the result clean, and the daemon answers
# the next request as if nothing happened.
execute_process(
  COMMAND ${DINEROSIM} --connect ${SOCK} --trace ${WORKDIR}/orig.out
          --size 4096 --sweep "assoc=1;assoc=2" --jobs 4 --worker-timeout 5
          --fault-spec "seed=5;worker.throw:1:1"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
check_rc("daemon-served worker.throw" 1 "${rc}")
if(NOT out MATCHES "sweep summary")
  message(FATAL_ERROR "worker.throw run lost its results: ${out}")
endif()
if(NOT err MATCHES "pipe-worker")
  message(FATAL_ERROR "worker.throw recovery diagnostic missing: ${err}")
endif()
execute_process(
  COMMAND ${DINEROSIM} --connect ${SOCK} --trace ${WORKDIR}/orig.out
          --size 4096 --sweep "assoc=1;assoc=2" --jobs 4
          --fault-spec "seed=3;queue.push-delay:0.5;queue.pop-delay:0.5"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
check_rc("daemon-served queue delays" 0 "${rc}")
if(NOT out MATCHES "sweep summary")
  message(FATAL_ERROR "queue-delay run lost its results: ${out}")
endif()
execute_process(
  COMMAND ${TDTD} --socket ${SOCK} --rpc status
  RESULT_VARIABLE rc OUTPUT_QUIET)
check_rc("tdtd alive after faults" 0 "${rc}")

# -- transform-digest: the daemon-only op (paper step 5 as one number). -------
execute_process(
  COMMAND ${TDTD} --socket ${SOCK} --rpc transform-digest --
          ${WORKDIR}/orig.out --rules ${RULES}
  RESULT_VARIABLE rc OUTPUT_VARIABLE digest_a)
check_rc("transform-digest" 0 "${rc}")
if(NOT digest_a MATCHES "transform-digest: crc32:[0-9a-f]+ records_in=")
  message(FATAL_ERROR "transform-digest reply malformed: ${digest_a}")
endif()
# The digest is a CRC-32 of the transformed trace's text, folded one
# encoder block at a time; the value is pinned so a change to the text
# writer or the block folding cannot go unnoticed.
if(NOT digest_a MATCHES "crc32:c7569739 ")
  message(FATAL_ERROR "transform-digest value changed: ${digest_a}")
endif()

# -- Memo: an identical repeat is byte-identical and counted as a hit. --------
execute_process(
  COMMAND ${TRACEINFO} --connect ${SOCK} ${WORKDIR}/orig.out
  RESULT_VARIABLE rc OUTPUT_VARIABLE warm_out ERROR_VARIABLE warm_err)
check_rc("traceinfo memo-warm" 0 "${rc}")
execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/orig.out
  RESULT_VARIABLE rc OUTPUT_VARIABLE cold_out)
check_rc("traceinfo local reference" 0 "${rc}")
if(NOT warm_out STREQUAL cold_out)
  message(FATAL_ERROR "memo-warm reply diverges from local run:\n"
                      "=== local ===\n${cold_out}\n=== warm ===\n${warm_out}")
endif()
execute_process(
  COMMAND ${TDTD} --socket ${SOCK} --rpc metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE metrics)
check_rc("tdtd --rpc metrics" 0 "${rc}")
if(NOT metrics MATCHES "\"service.memo_hits\": [1-9]")
  message(FATAL_ERROR "memo hit not counted in metrics: ${metrics}")
endif()
if(NOT metrics MATCHES "\"service.requests\": [1-9]")
  message(FATAL_ERROR "request counter missing from metrics: ${metrics}")
endif()

# -- gtracer is local-only: --connect must be refused, not proxied. -----------
execute_process(
  COMMAND ${GTRACER} --connect ${SOCK} --kernel t1_soa --len 64
          --out ${WORKDIR}/refused.out
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("gtracer --connect refusal" 2 "${rc}")
if(NOT err MATCHES "--connect is not supported")
  message(FATAL_ERROR "gtracer refusal diagnostic missing: ${err}")
endif()

# -- Clean shutdown: the op replies first, then the daemon drains and
#    unlinks its socket.
execute_process(
  COMMAND ${TDTD} --socket ${SOCK} --rpc shutdown
  RESULT_VARIABLE rc)
check_rc("tdtd --rpc shutdown" 0 "${rc}")
foreach(attempt RANGE 50)
  if(NOT EXISTS ${SOCK})
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(EXISTS ${SOCK})
  message(FATAL_ERROR "socket not unlinked after shutdown")
endif()
execute_process(
  COMMAND ${TDTD} --socket ${SOCK} --rpc status
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
check_rc("status after shutdown" 2 "${rc}")
if(NOT err MATCHES "is tdtd running")
  message(FATAL_ERROR "post-shutdown connect error unexpected: ${err}")
endif()
