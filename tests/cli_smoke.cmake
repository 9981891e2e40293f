# CLI smoke test: trace -> transform+simulate -> diff -> info, exactly the
# paper's workflow, via the installed tools.
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --out ${WORKDIR}/orig.out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer failed: ${rc}")
endif()

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out
          --size 32768 --block 32 --assoc 1 --per-set
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dinerosim (plain) failed: ${rc}")
endif()
if(NOT out MATCHES "miss ratio")
  message(FATAL_ERROR "dinerosim output missing stats: ${out}")
endif()

# Rule file is written for LEN=1024; regenerate the matching trace.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 1024 --out ${WORKDIR}/orig.out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer (len 1024) failed: ${rc}")
endif()

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out --rules ${RULES}
          --xform-out ${WORKDIR}/xform.out --size 32768 --block 32 --assoc 1
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dinerosim (rules) failed: ${rc}")
endif()
if(NOT EXISTS ${WORKDIR}/xform.out)
  message(FATAL_ERROR "transformed trace not written")
endif()

# --xform-out picks its writer from the name, as --trace picks its reader:
# the same transform written as din reads back through the din reader to
# the report the text copy gives.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out --rules ${RULES}
          --xform-out ${WORKDIR}/xform.din
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dinerosim --xform-out xform.din failed: ${rc}")
endif()
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/xform.din
  RESULT_VARIABLE din_rc OUTPUT_VARIABLE din_report ERROR_VARIABLE din_err)
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/xform.out
  RESULT_VARIABLE text_rc OUTPUT_VARIABLE text_report)
if(NOT din_rc EQUAL 0 OR NOT text_rc EQUAL 0)
  message(FATAL_ERROR "reading the transform back: exit ${din_rc} as din "
                      "(${din_err}), exit ${text_rc} as text")
endif()
if(NOT din_report STREQUAL text_report)
  message(FATAL_ERROR "din and text copies of one transform differ:\n"
                      "=== xform.din ===\n${din_report}\n"
                      "=== xform.out ===\n${text_report}")
endif()

# tracediff exits 1 when differences exist — which they must here.
execute_process(
  COMMAND ${TRACEDIFF} ${WORKDIR}/orig.out ${WORKDIR}/xform.out --summary
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "tracediff expected exit 1 (differences), got ${rc}")
endif()
if(NOT out MATCHES "modified 2048")
  message(FATAL_ERROR "tracediff summary unexpected: ${out}")
endif()

execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/xform.out
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traceinfo failed: ${rc}")
endif()
if(NOT out MATCHES "lAoS")
  message(FATAL_ERROR "traceinfo output missing transformed variable")
endif()

# din export + import.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --din --out ${WORKDIR}/t.din
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer --din failed: ${rc}")
endif()
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.din --size 4096 --block 32
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "miss ratio")
  message(FATAL_ERROR "dinerosim on din trace failed: ${rc}")
endif()

# The scalar scanner tier (TDT_NO_SIMD=1) must read text and din to the
# same report as the best SIMD tier this machine supports.
foreach(input orig.out t.din)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/${input} --size 4096 --block 32
    RESULT_VARIABLE rc OUTPUT_VARIABLE simd_out)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env TDT_NO_SIMD=1
            ${DINEROSIM} --trace ${WORKDIR}/${input} --size 4096 --block 32
    RESULT_VARIABLE scalar_rc OUTPUT_VARIABLE scalar_out)
  if(NOT rc EQUAL 0 OR NOT scalar_rc EQUAL 0)
    message(FATAL_ERROR "dinerosim on ${input}: exit ${rc}, "
                        "exit ${scalar_rc} under TDT_NO_SIMD=1")
  endif()
  if(NOT simd_out STREQUAL scalar_out)
    message(FATAL_ERROR "${input}: TDT_NO_SIMD=1 changes the report:\n"
                        "=== default ===\n${simd_out}\n"
                        "=== TDT_NO_SIMD=1 ===\n${scalar_out}")
  endif()
endforeach()

# advisor + prefetch + L2 flags.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out --size 8192
          --prefetch tagged --l2-size 65536 --advise
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "transformation advisor")
  message(FATAL_ERROR "dinerosim --advise failed: ${rc}")
endif()

# multicore mode.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out --cores 2 --assoc 8
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "MESI system")
  message(FATAL_ERROR "dinerosim --cores failed: ${rc}")
endif()

# one-pass sweep: the parallel pipeline must produce byte-identical
# stdout at any job count.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out
          --sweep "assoc=1;assoc=2;size=8k,assoc=4;block=64" --jobs 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE sweep_seq)
if(NOT rc EQUAL 0 OR NOT sweep_seq MATCHES "sweep summary")
  message(FATAL_ERROR "dinerosim --sweep --jobs 1 failed: ${rc}")
endif()
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/orig.out
          --sweep "assoc=1;assoc=2;size=8k,assoc=4;block=64" --jobs 4
  RESULT_VARIABLE rc OUTPUT_VARIABLE sweep_par ERROR_VARIABLE sweep_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dinerosim --sweep --jobs 4 failed: ${rc}")
endif()
if(NOT sweep_seq STREQUAL sweep_par)
  message(FATAL_ERROR "sweep output differs between --jobs 1 and --jobs 4:\n"
                      "=== jobs 1 ===\n${sweep_seq}\n"
                      "=== jobs 4 ===\n${sweep_par}")
endif()
if(NOT sweep_err MATCHES "pipeline:")
  message(FATAL_ERROR "pipeline counters missing from stderr: ${sweep_err}")
endif()
