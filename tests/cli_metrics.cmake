# Observability contract test (docs/OBSERVABILITY.md):
#
#   1. --metrics-json / --trace-spans / --progress never change the
#      tools' stdout or exit code — byte-identical to an uninstrumented
#      run (the paper's measurement-first methodology demands the
#      instrumentation is free of observable side effects).
#   2. The metrics file is valid JSON in the tdt-metrics/1 schema.
#   3. The span file is a Chrome trace_event document Perfetto can load.
#   4. The counters cross-check against ground truth: the simulator's
#      sim.records_simulated equals the record count gtracer reported.
#
# JSON validation uses CMake's string(JSON ...) (3.19+).
file(MAKE_DIRECTORY ${WORKDIR})

# Asserts ${file} parses as JSON; returns the whole document in ${out_var}.
function(read_json file out_var)
  if(NOT EXISTS ${file})
    message(FATAL_ERROR "expected JSON file not written: ${file}")
  endif()
  file(READ ${file} doc)
  string(JSON dummy ERROR_VARIABLE err TYPE "${doc}")
  if(err)
    message(FATAL_ERROR "${file} is not valid JSON: ${err}")
  endif()
  set(${out_var} "${doc}" PARENT_SCOPE)
endfunction()

# Asserts a tdt-metrics/1 document from ${tool}; returns it in ${out_var}.
function(check_metrics file tool out_var)
  read_json(${file} doc)
  string(JSON schema GET "${doc}" schema)
  if(NOT schema STREQUAL "tdt-metrics/1")
    message(FATAL_ERROR "${file}: schema is '${schema}', want tdt-metrics/1")
  endif()
  string(JSON json_tool GET "${doc}" tool)
  if(NOT json_tool STREQUAL ${tool})
    message(FATAL_ERROR "${file}: tool is '${json_tool}', want ${tool}")
  endif()
  foreach(key phases counters gauges histograms)
    string(JSON type ERROR_VARIABLE err TYPE "${doc}" ${key})
    if(err)
      message(FATAL_ERROR "${file}: missing top-level key '${key}'")
    endif()
  endforeach()
  set(${out_var} "${doc}" PARENT_SCOPE)
endfunction()

# Every tool reports its process's peak RSS and CPU time as gauges, read
# with getrusage(RUSAGE_SELF) just before the metrics file is written.
function(check_process_gauges what doc)
  foreach(gauge peak_rss_bytes cpu_seconds)
    string(JSON value ERROR_VARIABLE err GET "${doc}" gauges process.${gauge})
    if(err OR NOT value GREATER 0)
      message(FATAL_ERROR "${what}: process.${gauge}=${value}, want > 0")
    endif()
  endforeach()
endfunction()

# ---- trace to simulate -----------------------------------------------

execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 256 --out ${WORKDIR}/t.out
          --metrics-json ${WORKDIR}/gtracer.json
  RESULT_VARIABLE rc ERROR_VARIABLE gtracer_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer failed: ${rc}")
endif()
check_metrics(${WORKDIR}/gtracer.json gtracer gtracer_doc)
check_process_gauges(gtracer "${gtracer_doc}")
string(JSON trace_records GET "${gtracer_doc}" counters trace.records)
if(NOT gtracer_err MATCHES "${trace_records} records from kernel")
  message(FATAL_ERROR
    "gtracer trace.records=${trace_records} disagrees with its own "
    "report: ${gtracer_err}")
endif()

# Every writer format reports the write.* family: the records it wrote,
# the bytes it handed to the file (so the file size), and the seconds
# spent writing, which are more than zero once anything was written.
function(check_write_family what doc records file)
  string(JSON written GET "${doc}" counters write.records)
  if(NOT written EQUAL records)
    message(FATAL_ERROR "${what}: write.records=${written}, want ${records}")
  endif()
  string(JSON bytes GET "${doc}" counters write.bytes)
  file(SIZE ${file} size)
  if(NOT bytes EQUAL size)
    message(FATAL_ERROR "${what}: write.bytes=${bytes}, file is ${size}")
  endif()
  string(JSON seconds ERROR_VARIABLE err GET "${doc}" gauges
         write.encode_seconds)
  if(err OR NOT seconds GREATER 0)
    message(FATAL_ERROR "${what}: write.encode_seconds=${seconds}, want > 0")
  endif()
endfunction()
check_write_family("gtracer text" "${gtracer_doc}" ${trace_records}
                   ${WORKDIR}/t.out)

# ---- dinerosim sweep: byte-identity + schema + cross-check -----------

# The sweep spec is quoted inline: storing it in a variable would split
# it at the semicolons during list expansion.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.out --jobs 4
          --sweep "assoc=1;assoc=2;assoc=8"
  RESULT_VARIABLE base_rc OUTPUT_VARIABLE base_out)
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.out --jobs 4
          --sweep "assoc=1;assoc=2;assoc=8"
          --metrics-json ${WORKDIR}/m.json --trace-spans ${WORKDIR}/s.json
          --progress
  RESULT_VARIABLE inst_rc OUTPUT_VARIABLE inst_out ERROR_VARIABLE inst_err)
if(NOT base_rc EQUAL inst_rc)
  message(FATAL_ERROR
    "exit code changed under instrumentation: ${base_rc} vs ${inst_rc}")
endif()
if(NOT base_out STREQUAL inst_out)
  message(FATAL_ERROR "stdout changed under instrumentation:\n"
                      "=== plain ===\n${base_out}\n"
                      "=== instrumented ===\n${inst_out}")
endif()
if(NOT inst_err MATCHES "dinerosim: [0-9]+ records .* done")
  message(FATAL_ERROR "--progress heartbeat missing from stderr: ${inst_err}")
endif()

check_metrics(${WORKDIR}/m.json dinerosim metrics_doc)
check_process_gauges(dinerosim "${metrics_doc}")
string(JSON simulated GET "${metrics_doc}" counters sim.records_simulated)
string(JSON read_records GET "${metrics_doc}" counters read.records)
# t1_soa emits no instruction-fetch records, so every record read is
# simulated, and that count is exactly what gtracer wrote.
if(NOT simulated EQUAL trace_records OR NOT read_records EQUAL trace_records)
  message(FATAL_ERROR
    "counter cross-check failed: gtracer wrote ${trace_records} records, "
    "dinerosim read ${read_records} and simulated ${simulated}")
endif()
string(JSON points GET "${metrics_doc}" gauges sweep.points)
if(NOT points EQUAL 3)
  message(FATAL_ERROR "sweep.points=${points}, want 3")
endif()
string(JSON p0_hits GET "${metrics_doc}" counters cache.p0.L1.read_hits)
# The fan-out caps workers at the point count: 3 points, --jobs 4 -> 3.
string(JSON jobs GET "${metrics_doc}" gauges pipeline.jobs)
if(NOT jobs EQUAL 3)
  message(FATAL_ERROR "pipeline.jobs=${jobs}, want 3")
endif()
# One delivery timer per fan-out sink, i.e. per sweep point.
foreach(i 0 1 2)
  string(JSON sink_seconds ERROR_VARIABLE err
         GET "${metrics_doc}" gauges pipeline.sink${i}.seconds)
  if(err OR NOT sink_seconds GREATER 0)
    message(FATAL_ERROR
      "pipeline.sink${i}.seconds='${sink_seconds}', want a positive time")
  endif()
endforeach()
string(JSON sink_seconds ERROR_VARIABLE err
       GET "${metrics_doc}" gauges pipeline.sink3.seconds)
if(NOT err)
  message(FATAL_ERROR "pipeline.sink3.seconds present for a 3-point sweep")
endif()

# Span file: a trace_event JSON with complete ("ph": "X") events for the
# stream phase and the pipeline workers.
read_json(${WORKDIR}/s.json spans_doc)
string(JSON events_type TYPE "${spans_doc}" traceEvents)
if(NOT events_type STREQUAL ARRAY)
  message(FATAL_ERROR "traceEvents is ${events_type}, want ARRAY")
endif()
if(NOT spans_doc MATCHES "\"ph\": \"X\"")
  message(FATAL_ERROR "no complete spans in ${WORKDIR}/s.json")
endif()
foreach(span stream report "worker 0")
  if(NOT spans_doc MATCHES "\"name\": \"${span}\"")
    message(FATAL_ERROR "span '${span}' missing from ${WORKDIR}/s.json")
  endif()
endforeach()

# ---- dinerosim --affinity-report: the affinity.* family --------------

# With --jobs > 1 the profiler runs on a one-worker fan-out of its own,
# which reports as affinity.* with its own span lane and summary line;
# pipeline.* keeps describing the simulation alone. --jobs 1 profiles
# inline and reports no affinity.* key.
foreach(jobs 1 3)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.out --jobs ${jobs}
            --metrics-json ${WORKDIR}/mp_j${jobs}.json
    RESULT_VARIABLE plain_rc OUTPUT_VARIABLE plain_out)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.out --jobs ${jobs}
            --affinity-report ${WORKDIR}/a_j${jobs}.txt
            --metrics-json ${WORKDIR}/ma_j${jobs}.json
            --trace-spans ${WORKDIR}/sa_j${jobs}.json
    RESULT_VARIABLE aff_rc OUTPUT_VARIABLE aff_out ERROR_VARIABLE aff_err)
  if(NOT plain_rc EQUAL 0 OR NOT aff_rc EQUAL 0)
    message(FATAL_ERROR
      "affinity runs at --jobs ${jobs} failed: ${plain_rc} / ${aff_rc}")
  endif()
  if(NOT plain_out STREQUAL aff_out)
    message(FATAL_ERROR "--affinity-report changed stdout at --jobs ${jobs}")
  endif()
  check_metrics(${WORKDIR}/mp_j${jobs}.json dinerosim plain_doc)
  check_metrics(${WORKDIR}/ma_j${jobs}.json dinerosim aff_doc)
  if(jobs EQUAL 1)
    if(aff_doc MATCHES "\"affinity\\.")
      message(FATAL_ERROR "affinity.* metrics reported at --jobs 1")
    endif()
    continue()
  endif()
  string(JSON plain_jobs GET "${plain_doc}" gauges pipeline.jobs)
  string(JSON with_jobs GET "${aff_doc}" gauges pipeline.jobs)
  string(JSON plain_records GET "${plain_doc}" counters pipeline.records)
  string(JSON with_records GET "${aff_doc}" counters pipeline.records)
  if(NOT plain_jobs EQUAL with_jobs OR NOT plain_records EQUAL with_records)
    message(FATAL_ERROR
      "pipeline.jobs/records are ${with_jobs}/${with_records} with "
      "--affinity-report, ${plain_jobs}/${plain_records} without")
  endif()
  string(JSON aff_seconds ERROR_VARIABLE err
         GET "${aff_doc}" gauges affinity.sink0.seconds)
  if(err OR NOT aff_seconds GREATER 0)
    message(FATAL_ERROR
      "affinity.sink0.seconds='${aff_seconds}', want a positive time")
  endif()
  string(JSON aff_jobs GET "${aff_doc}" gauges affinity.jobs)
  string(JSON aff_records GET "${aff_doc}" counters affinity.records)
  if(NOT aff_jobs EQUAL 1 OR NOT aff_records EQUAL trace_records)
    message(FATAL_ERROR
      "affinity.jobs=${aff_jobs} affinity.records=${aff_records}, "
      "want 1 and ${trace_records}")
  endif()
  if(NOT aff_err MATCHES "\naffinity: ${trace_records} records")
    message(FATAL_ERROR "affinity summary line missing: ${aff_err}")
  endif()
  file(READ ${WORKDIR}/sa_j${jobs}.json aff_spans)
  if(NOT aff_spans MATCHES "\"name\": \"affinity worker 0\"")
    message(FATAL_ERROR "affinity worker lane missing from the span file")
  endif()
endforeach()

# ---- dinerosim --xform-out x.tdtb: the write.* family ----------------

# The --xform-out writer folds write.* when a registry is attached. Timing
# it must change neither the report nor the container.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.out --rules ${RULES}
          --xform-out ${WORKDIR}/x_plain.tdtb --compress none --jobs 3
  RESULT_VARIABLE base_rc OUTPUT_VARIABLE base_out)
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.out --rules ${RULES}
          --xform-out ${WORKDIR}/x.tdtb --compress none --jobs 3
          --metrics-json ${WORKDIR}/mx.json
  RESULT_VARIABLE inst_rc OUTPUT_VARIABLE inst_out)
if(NOT base_rc EQUAL 0 OR NOT inst_rc EQUAL 0)
  message(FATAL_ERROR "xform runs failed: ${base_rc} / ${inst_rc}")
endif()
if(NOT base_out STREQUAL inst_out)
  message(FATAL_ERROR "xform stdout changed under instrumentation")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORKDIR}/x_plain.tdtb ${WORKDIR}/x.tdtb RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "xform container changed under instrumentation")
endif()
check_metrics(${WORKDIR}/mx.json dinerosim xform_doc)
string(JSON write_frames GET "${xform_doc}" counters write.frames)
if(NOT write_frames GREATER 0)
  message(FATAL_ERROR "write.frames=${write_frames}, want > 0")
endif()
# The T1 rewrite maps each record to one record: as many are written as
# were read.
string(JSON write_records GET "${xform_doc}" counters write.records)
string(JSON xform_read GET "${xform_doc}" counters read.records)
if(NOT write_records EQUAL xform_read)
  message(FATAL_ERROR
    "write.records=${write_records}, want read.records=${xform_read}")
endif()
string(JSON write_bytes GET "${xform_doc}" counters write.bytes)
file(SIZE ${WORKDIR}/x.tdtb xform_size)
if(NOT write_bytes EQUAL xform_size)
  message(FATAL_ERROR "write.bytes=${write_bytes}, file is ${xform_size}")
endif()
foreach(gauge encode_seconds compress_seconds)
  string(JSON seconds ERROR_VARIABLE err GET "${xform_doc}" gauges write.${gauge})
  if(err)
    message(FATAL_ERROR "write.${gauge} missing from ${WORKDIR}/mx.json")
  endif()
endforeach()

# A text --xform-out reports the same family.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/t.out --rules ${RULES}
          --xform-out ${WORKDIR}/x.out --metrics-json ${WORKDIR}/mxt.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "text xform run failed: ${rc}")
endif()
check_metrics(${WORKDIR}/mxt.json dinerosim xform_text_doc)
string(JSON xform_text_read GET "${xform_text_doc}" counters read.records)
check_write_family("dinerosim --xform-out x.out" "${xform_text_doc}"
                   ${xform_text_read} ${WORKDIR}/x.out)

# ---- traceinfo: same byte-identity contract --------------------------

execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/t.out
  RESULT_VARIABLE base_rc OUTPUT_VARIABLE base_out)
execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/t.out --metrics-json ${WORKDIR}/ti.json
  RESULT_VARIABLE inst_rc OUTPUT_VARIABLE inst_out)
if(NOT base_rc EQUAL inst_rc OR NOT base_out STREQUAL inst_out)
  message(FATAL_ERROR "traceinfo output changed under instrumentation")
endif()
check_metrics(${WORKDIR}/ti.json traceinfo ti_doc)
check_process_gauges(traceinfo "${ti_doc}")
string(JSON ti_records GET "${ti_doc}" counters read.records)
if(NOT ti_records EQUAL trace_records)
  message(FATAL_ERROR
    "traceinfo read.records=${ti_records}, want ${trace_records}")
endif()

# ---- read.bytes: a complete pass counts the whole input --------------

# The v2 count+CRC footer and the v3 index and footer count too.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 256 --binary
          --out ${WORKDIR}/t_v2.tdtb --metrics-json ${WORKDIR}/gtracer_v2.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer v2 failed: ${rc}")
endif()

# gtracer writes while it generates, so a TDTB run reports the write.*
# family the way dinerosim's writer does: every generated record was written,
# and write.bytes is the file. Generating and writing are one phase.
check_metrics(${WORKDIR}/gtracer_v2.json gtracer gtracer_v2_doc)
string(JSON v2_generated GET "${gtracer_v2_doc}" counters trace.records)
string(JSON v2_written GET "${gtracer_v2_doc}" counters write.records)
if(NOT v2_written EQUAL v2_generated)
  message(FATAL_ERROR "gtracer --binary: write.records=${v2_written}, "
                      "trace.records=${v2_generated}")
endif()
string(JSON v2_bytes GET "${gtracer_v2_doc}" counters write.bytes)
file(SIZE ${WORKDIR}/t_v2.tdtb v2_size)
if(NOT v2_bytes EQUAL v2_size)
  message(FATAL_ERROR "gtracer --binary: write.bytes=${v2_bytes}, file is "
                      "${v2_size}")
endif()
string(JSON v2_phases GET "${gtracer_v2_doc}" phases)
if(NOT v2_phases MATCHES "\"generate\"" OR v2_phases MATCHES "\"write\"")
  message(FATAL_ERROR "gtracer phases must be one 'generate': ${v2_phases}")
endif()
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 256 --binary --compress none
          --out ${WORKDIR}/t_v3.tdtb
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer v3 failed: ${rc}")
endif()
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 256 --din --out ${WORKDIR}/t.din
          --metrics-json ${WORKDIR}/gtracer_din.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer din failed: ${rc}")
endif()
check_metrics(${WORKDIR}/gtracer_din.json gtracer gtracer_din_doc)
check_write_family("gtracer din" "${gtracer_din_doc}" ${trace_records}
                   ${WORKDIR}/t.din)
foreach(input t.out t.din t_v2.tdtb t_v3.tdtb)
  execute_process(
    COMMAND ${TRACEINFO} ${WORKDIR}/${input}
            --metrics-json ${WORKDIR}/bytes.json
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traceinfo ${input} failed: ${rc}")
  endif()
  check_metrics(${WORKDIR}/bytes.json traceinfo bytes_doc)
  string(JSON read_bytes GET "${bytes_doc}" counters read.bytes)
  file(SIZE ${WORKDIR}/${input} input_size)
  if(NOT read_bytes EQUAL input_size)
    message(FATAL_ERROR
      "traceinfo ${input}: read.bytes=${read_bytes}, file is ${input_size}")
  endif()
endforeach()
