# API hygiene for in-tree facade clients (docs/RULES.md):
#  * tools include only the public facade ("tdt/...") and their own
#    shared plumbing ("tools/..."); examples include only "tdt/...".
#  * nothing spells or re-registers a removed flag alias
#    (--replacement, --cacheline) — their deprecation window is over
#    and the spellings are refused as unknown flags — and nothing
#    registers the removed --ingest flag again.
set(failures "")

file(GLOB tool_sources ${SOURCE_DIR}/src/tools/*.cpp)
file(GLOB example_sources ${SOURCE_DIR}/examples/*.cpp)

foreach(src ${tool_sources} ${example_sources})
  # cli_common.cpp IS the "tools/" plumbing implementation; the facade
  # rule binds its clients (the tool entry points), not the plumbing.
  if(src MATCHES "cli_common\\.cpp$")
    continue()
  endif()
  file(READ ${src} text)
  string(REGEX MATCHALL "#include \"[^\"]+\"" includes "${text}")
  foreach(inc ${includes})
    string(REGEX REPLACE "#include \"([^\"]+)\"" "\\1" path "${inc}")
    if(src MATCHES "/src/tools/")
      if(NOT path MATCHES "^(tdt|tools)/")
        list(APPEND failures "${src}: internal include \"${path}\"")
      endif()
    else()
      if(NOT path MATCHES "^tdt/")
        list(APPEND failures "${src}: internal include \"${path}\"")
      endif()
    endif()
  endforeach()
endforeach()

# The shared CLI plumbing itself may reach into src/ — it IS the
# implementation layer — but nothing may resurrect a deprecated spelling.
file(GLOB cli_sources ${SOURCE_DIR}/src/tools/*.cpp ${SOURCE_DIR}/src/tools/*.hpp
     ${SOURCE_DIR}/examples/*.cpp ${SOURCE_DIR}/tests/cli_smoke.cmake
     ${SOURCE_DIR}/tests/cli_robustness.cmake ${SOURCE_DIR}/tests/cli_metrics.cmake
     ${SOURCE_DIR}/tests/cli_tdtune.cmake ${SOURCE_DIR}/tests/cli_daemon.cmake)
foreach(src ${cli_sources})
  file(STRINGS ${src} lines)
  foreach(line ${lines})
    if(line MATCHES "^[ \t]*(//|#)")  # prose may name the old spelling
      continue()
    endif()
    if(line MATCHES "--replacement|--cacheline")
      list(APPEND failures "${src}: deprecated flag spelling: ${line}")
    endif()
    # The one-release deprecation window for these aliases is over
    # (docs/RULES.md): registering either spelling again, through any
    # FlagParser::add_* call, is a hygiene failure, not a compatibility
    # feature. --ingest went without a window (it never changed output)
    # and must not come back either.
    if(line MATCHES "add_[a-z_]+\\(\"(replacement|cacheline|ingest)\"")
      list(APPEND failures "${src}: removed flag re-registered: ${line}")
    endif()
  endforeach()
endforeach()

if(NOT failures STREQUAL "")
  string(REPLACE ";" "\n  " pretty "${failures}")
  message(FATAL_ERROR "API hygiene violations:\n  ${pretty}")
endif()
