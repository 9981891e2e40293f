# Reader memory gate (ROADMAP item 5): the TDTB v3 decode window is
# bounded in records. traceinfo reads one 17-frame t2 trace at --jobs 1
# and at --jobs 3, and its process.peak_rss_bytes gauge at --jobs 3 must
# exceed the --jobs 1 one by less than 4 x 65,536 records of 96 B
# (sizeof(TraceRecord), 25,165,824 B): the three more writer-default
# frames the window holds at --jobs 3, plus one frame of slack.
# Registered only without sanitizers, whose allocators inflate RSS.
file(MAKE_DIRECTORY ${WORKDIR})
set(trace ${WORKDIR}/t2.tdtb)
set(frames 17)  # 1,100,004 records in frames of 65,536
math(EXPR bound "4 * 65536 * 96")

execute_process(
  COMMAND ${GTRACER} --kernel t2_inline --len 100000 --binary
          --compress zstd --out ${trace}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 2 AND err MATCHES "unavailable")
  # Without zstd the same frames are stored uncompressed.
  execute_process(
    COMMAND ${GTRACER} --kernel t2_inline --len 100000 --binary
            --compress none --out ${trace}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gtracer failed (${rc}): ${err}")
endif()

# Reads the trace at --jobs ${jobs}; returns the peak RSS gauge.
function(peak_rss jobs out_var)
  set(json ${WORKDIR}/jobs${jobs}.json)
  execute_process(
    COMMAND ${TRACEINFO} ${trace} --jobs ${jobs} --metrics-json ${json}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traceinfo --jobs ${jobs} failed (${rc}): ${err}")
  endif()
  file(READ ${json} doc)
  string(JSON read_frames GET "${doc}" counters read.frames)
  if(NOT read_frames EQUAL frames)
    message(FATAL_ERROR
      "traceinfo --jobs ${jobs}: read.frames=${read_frames}, want ${frames}")
  endif()
  string(JSON peak GET "${doc}" gauges process.peak_rss_bytes)
  set(${out_var} ${peak} PARENT_SCOPE)
endfunction()

peak_rss(1 peak1)
peak_rss(3 peak3)
math(EXPR growth "${peak3} - ${peak1}")
message(STATUS "peak RSS: --jobs 1 ${peak1} B, --jobs 3 ${peak3} B, "
               "growth ${growth} B, bound ${bound} B")
if(NOT growth LESS bound)
  message(FATAL_ERROR
    "traceinfo --jobs 3 peaked ${growth} bytes above --jobs 1; "
    "the decode window allows less than ${bound}")
endif()
