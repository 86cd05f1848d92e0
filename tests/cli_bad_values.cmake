# ctest script for the cli_bad_values test (see tests/CMakeLists.txt).
#
# Every integer CLI value must be a whole integer token: `abc`, `3x` or `x`
# where a device id or count belongs makes firmres print `error: invalid …`
# and exit 1 before it writes anything, so the output directory stays empty.
if(NOT DEFINED FIRMRES_BIN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "cli_bad_values.cmake needs -DFIRMRES_BIN=... -DWORKDIR=...")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(expect_rejected expected_error)
  execute_process(
    COMMAND "${FIRMRES_BIN}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "firmres ${ARGN}: exit ${rc}, expected 1")
  endif()
  string(FIND "${err}" "error: ${expected_error}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "firmres ${ARGN}: stderr '${err}' lacks 'error: ${expected_error}'")
  endif()
  file(GLOB written "${WORKDIR}/*")
  if(written)
    message(FATAL_ERROR "firmres ${ARGN} wrote ${written}")
  endif()
endfunction()

expect_rejected("invalid --device value 'abc'"
  synth "${WORKDIR}/fw" --device abc)
expect_rejected("invalid --device value '3x'"
  synth "${WORKDIR}/fw" --device 3x)
expect_rejected("invalid devices value 'abc'"
  train "${WORKDIR}/model.json" abc)
expect_rejected("invalid --device value 'x'"
  explain "${WORKDIR}/report.json" --device x)
