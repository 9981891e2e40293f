# CLI contract for the TDTB v3 framed container (docs/FORMATS.md):
# --compress on the writers, auto-detected parallel decode on the
# readers, the traceinfo container section, transparent .gz text
# ingest, and graceful degradation when a codec library is absent.
# Codec-none rows run unconditionally (framing needs no library);
# zstd/lz4 rows are gated by a runtime probe of the writer.
file(MAKE_DIRECTORY ${WORKDIR})

function(check_rc what expected actual)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR "${what}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

function(check_same what file_a file_b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${file_a} ${file_b}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: output differs (${file_a} vs ${file_b})")
  endif()
endfunction()

# -- Fixtures: the same kernel as text, flat v2, and framed v3. ---------------
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 2048 --out ${WORKDIR}/plain.out
  RESULT_VARIABLE rc)
check_rc("gtracer text" 0 "${rc}")
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 2048 --binary
          --out ${WORKDIR}/flat.tdtb
  RESULT_VARIABLE rc)
check_rc("gtracer v2" 0 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/plain.out --size 4096
  OUTPUT_FILE ${WORKDIR}/baseline.stdout RESULT_VARIABLE rc)
check_rc("dinerosim text baseline" 0 "${rc}")

# -- Codec matrix: none unconditionally, zstd/lz4 when loadable. --------------
# The probe *is* the writer: an unavailable codec is a classified config
# error (exit 2, "unavailable" on stderr), never a silent fallback.
set(codecs none)
foreach(codec zstd lz4)
  execute_process(
    COMMAND ${GTRACER} --kernel t1_soa --len 2048 --binary
            --compress ${codec} --out ${WORKDIR}/c_${codec}.tdtb
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(rc EQUAL 0)
    list(APPEND codecs ${codec})
  elseif(rc EQUAL 2 AND err MATCHES "unavailable")
    message(STATUS "codec ${codec} not loadable here; row skipped")
  else()
    message(FATAL_ERROR "gtracer --compress ${codec}: exit ${rc}: ${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 2048 --binary
          --compress none --out ${WORKDIR}/c_none.tdtb
  RESULT_VARIABLE rc)
check_rc("gtracer --compress none" 0 "${rc}")

foreach(codec ${codecs})
  set(tdtb ${WORKDIR}/c_${codec}.tdtb)

  # Readers need no flag: the container names its codec per frame, and
  # the simulation must match the text baseline bit-for-bit.
  execute_process(
    COMMAND ${DINEROSIM} --trace ${tdtb} --size 4096
    OUTPUT_FILE ${WORKDIR}/read_${codec}_j1.stdout RESULT_VARIABLE rc)
  check_rc("dinerosim ${codec} jobs=1" 0 "${rc}")
  check_same("v3 ${codec} matches text baseline"
             ${WORKDIR}/baseline.stdout ${WORKDIR}/read_${codec}_j1.stdout)

  # Parallel shard decode publishes in frame order: jobs=4 output is
  # byte-identical to the sequential read.
  execute_process(
    COMMAND ${DINEROSIM} --trace ${tdtb} --size 4096 --jobs 4
    OUTPUT_FILE ${WORKDIR}/read_${codec}_j4.stdout RESULT_VARIABLE rc)
  check_rc("dinerosim ${codec} jobs=4" 0 "${rc}")
  check_same("v3 ${codec} jobs=4 == jobs=1"
             ${WORKDIR}/read_${codec}_j1.stdout
             ${WORKDIR}/read_${codec}_j4.stdout)

  # tracediff closes the loop: the framed container decodes to exactly
  # the records the text trace holds.
  execute_process(
    COMMAND ${TRACEDIFF} ${WORKDIR}/plain.out ${tdtb} --summary
    RESULT_VARIABLE rc)
  check_rc("tracediff text vs ${codec} container" 0 "${rc}")

  # traceinfo renders the container section for every codec.
  execute_process(
    COMMAND ${TRACEINFO} ${tdtb}
    OUTPUT_VARIABLE info RESULT_VARIABLE rc)
  check_rc("traceinfo ${codec}" 0 "${rc}")
  if(NOT info MATCHES "== container ==")
    message(FATAL_ERROR "traceinfo ${codec} missing container section")
  endif()
  if(NOT info MATCHES "frames")
    message(FATAL_ERROR "traceinfo ${codec} missing frame count")
  endif()
endforeach()

# A compressed container really is smaller than the flat v2 blob.
if(codecs MATCHES "zstd")
  file(SIZE ${WORKDIR}/flat.tdtb flat_size)
  file(SIZE ${WORKDIR}/c_zstd.tdtb zstd_size)
  if(NOT zstd_size LESS flat_size)
    message(FATAL_ERROR
      "zstd container (${zstd_size}) not smaller than flat v2 (${flat_size})")
  endif()
endif()

# -- The paper's save path: dinerosim --rules ... --xform-out x.tdtb. ---------
# The transformed trace is written while it is simulated. At LEN 16384
# the T1 rewrite emits 131k records, so the default 65536-record frames
# fill twice and, with a codec at --jobs 3, the writer thread compresses
# them. Neither the container nor the report may depend on --jobs, the
# report must match the text --xform-out run, and the container must
# hold exactly the records of that run's text trace.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 16384 --out ${WORKDIR}/xf.out
  RESULT_VARIABLE rc)
check_rc("gtracer xform fixture" 0 "${rc}")
# The stock rule is written for LEN 1024; the sized rule is the same
# text at LEN 16384, so no record takes the skip path.
file(READ ${RULES} rules_text)
string(REPLACE "1024" "16384" rules_text "${rules_text}")
file(WRITE ${WORKDIR}/t1_16384.rules "${rules_text}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/xf.out --size 4096
          --rules ${WORKDIR}/t1_16384.rules --xform-out ${WORKDIR}/xf_text.out
  OUTPUT_FILE ${WORKDIR}/xf_text.stdout RESULT_VARIABLE rc)
check_rc("dinerosim --xform-out text" 0 "${rc}")

foreach(format v2 ${codecs})
  if(format STREQUAL "v2")
    set(compress_args "")
  else()
    set(compress_args --compress ${format})
  endif()
  foreach(jobs 1 3)
    execute_process(
      COMMAND ${DINEROSIM} --trace ${WORKDIR}/xf.out --size 4096
              --rules ${WORKDIR}/t1_16384.rules
              --xform-out ${WORKDIR}/xf_${format}_j${jobs}.tdtb
              ${compress_args} --jobs ${jobs}
      OUTPUT_FILE ${WORKDIR}/xf_${format}_j${jobs}.stdout RESULT_VARIABLE rc)
    check_rc("dinerosim --xform-out ${format} jobs=${jobs}" 0 "${rc}")
  endforeach()
  check_same("xform ${format} container jobs=3 == jobs=1"
             ${WORKDIR}/xf_${format}_j1.tdtb ${WORKDIR}/xf_${format}_j3.tdtb)
  check_same("xform ${format} report jobs=3 == jobs=1"
             ${WORKDIR}/xf_${format}_j1.stdout ${WORKDIR}/xf_${format}_j3.stdout)
  check_same("xform ${format} report matches the text --xform-out run"
             ${WORKDIR}/xf_text.stdout ${WORKDIR}/xf_${format}_j1.stdout)
  execute_process(
    COMMAND ${TRACEDIFF} ${WORKDIR}/xf_text.out ${WORKDIR}/xf_${format}_j1.tdtb
            --summary
    RESULT_VARIABLE rc)
  check_rc("tracediff text vs ${format} --xform-out" 0 "${rc}")
endforeach()

# A record the format cannot carry is refused with exit 2 and the cap
# named, instead of becoming a container its own reader rejects: the
# text reader takes a 5000-step selector, TDTB stops at kMaxVarSteps.
string(REPEAT "[0]" 5000 deep_selector)
file(WRITE ${WORKDIR}/deep.out
  "START PID 1\nS 000601040 4 main GS grid${deep_selector}\n")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/deep.out --size 4096
  OUTPUT_QUIET RESULT_VARIABLE rc)
check_rc("dinerosim reads a 5000-step selector" 0 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/deep.out --size 4096
          --rules ${RULES} --xform-out ${WORKDIR}/deep.tdtb
  OUTPUT_QUIET RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("--xform-out .tdtb past kMaxVarSteps" 2 "${rc}")
if(NOT err MATCHES "step count value 5000 exceeds limit 4096 \\(kMaxVarSteps")
  message(FATAL_ERROR "step-cap refusal does not name the cap: ${err}")
endif()

# -- Degradation without codec libraries (TDT_NO_CODEC=1). --------------------
# Writing a compressed container must fail loudly...
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env TDT_NO_CODEC=1
          ${GTRACER} --kernel t1_soa --len 64 --binary
          --compress zstd --out ${WORKDIR}/denied.tdtb
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("gtracer --compress zstd under TDT_NO_CODEC" 2 "${rc}")
if(NOT err MATCHES "unavailable")
  message(FATAL_ERROR "TDT_NO_CODEC write missing diagnostic: ${err}")
endif()
# ...while codec-none containers stay fully usable: framing, the
# seekable index, and parallel decode need no library at all.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env TDT_NO_CODEC=1
          ${DINEROSIM} --trace ${WORKDIR}/c_none.tdtb --size 4096 --jobs 4
  OUTPUT_FILE ${WORKDIR}/nocodec.stdout RESULT_VARIABLE rc)
check_rc("dinerosim codec-none under TDT_NO_CODEC" 0 "${rc}")
check_same("codec-none read is library-free"
           ${WORKDIR}/baseline.stdout ${WORKDIR}/nocodec.stdout)

# -- Transparent gzip text ingest. --------------------------------------------
# gtracer writes gzip when the output path ends in .gz; readers sniff the
# magic, so the compressed text simulates identically with no flag.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 2048
          --out ${WORKDIR}/plain.out.gz
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
  file(SIZE ${WORKDIR}/plain.out plain_size)
  file(SIZE ${WORKDIR}/plain.out.gz gz_size)
  if(NOT gz_size LESS plain_size)
    message(FATAL_ERROR ".gz output (${gz_size}) not smaller than text (${plain_size})")
  endif()
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/plain.out.gz --size 4096
    OUTPUT_FILE ${WORKDIR}/gz.stdout RESULT_VARIABLE rc)
  check_rc("dinerosim .gz ingest" 0 "${rc}")
  check_same(".gz ingest matches plain text"
             ${WORKDIR}/baseline.stdout ${WORKDIR}/gz.stdout)

  # din goes through the same output stream, so a .gz name gzips it too
  # (it used to write plain din under the .gz name), and the gzip'd din
  # simulates exactly like the plain one.
  foreach(name plain.din plain.din.gz)
    execute_process(
      COMMAND ${GTRACER} --kernel t1_soa --len 2048 --din
              --out ${WORKDIR}/${name}
      RESULT_VARIABLE rc)
    check_rc("gtracer --din --out ${name}" 0 "${rc}")
    execute_process(
      COMMAND ${DINEROSIM} --trace ${WORKDIR}/${name} --size 4096
      OUTPUT_FILE ${WORKDIR}/${name}.stdout RESULT_VARIABLE rc)
    check_rc("dinerosim ${name}" 0 "${rc}")
  endforeach()
  file(READ ${WORKDIR}/plain.din.gz din_magic LIMIT 2 HEX)
  if(NOT din_magic STREQUAL "1f8b")
    message(FATAL_ERROR "gtracer --din to a .gz name did not gzip "
                        "(first bytes ${din_magic})")
  endif()
  check_same(".gz din matches plain din"
             ${WORKDIR}/plain.din.stdout ${WORKDIR}/plain.din.gz.stdout)

  # dinerosim's --xform-out writes through the same output stream, so
  # x.out.gz holds gzip'd text (it used to hold plain text under the .gz
  # name), and it reads back to the same report as the plain x.out.
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/xf.out --size 4096
            --rules ${WORKDIR}/t1_16384.rules
            --xform-out ${WORKDIR}/xf_text.out.gz
    RESULT_VARIABLE rc)
  check_rc("dinerosim --xform-out x.out.gz" 0 "${rc}")
  file(READ ${WORKDIR}/xf_text.out.gz xform_magic LIMIT 2 HEX)
  if(NOT xform_magic STREQUAL "1f8b")
    message(FATAL_ERROR "dinerosim --xform-out to a .gz name did not gzip "
                        "(first bytes ${xform_magic})")
  endif()
  foreach(name xf_text.out xf_text.out.gz)
    execute_process(
      COMMAND ${DINEROSIM} --trace ${WORKDIR}/${name} --size 4096
      OUTPUT_FILE ${WORKDIR}/${name}.readback RESULT_VARIABLE rc)
    check_rc("dinerosim reads back ${name}" 0 "${rc}")
  endforeach()
  check_same(".gz --xform-out reads back like the plain one"
             ${WORKDIR}/xf_text.out.readback
             ${WORKDIR}/xf_text.out.gz.readback)
elseif(rc EQUAL 2 AND err MATCHES "gzip")
  message(STATUS "zlib not built in; gzip rows skipped")
else()
  message(FATAL_ERROR "gtracer .gz: exit ${rc}: ${err}")
endif()

message(STATUS "cli_compress: codecs exercised: ${codecs}")
