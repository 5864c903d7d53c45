# Runs `broadcast_cli` on inputs it must refuse and requires, for each, a
# prompt non-zero exit whose error output names the offending value:
#   * a bandwidth so small that 4 * total size / bandwidth overflows, through
#     both `schedule` and `plan` (accepted, they print inf waiting times and
#     exit 0);
#   * numeric flags with trailing junk or values outside their type's range
#     (accepted, `--channels 4294967298` silently runs with K = 2).
#
#   cmake -DCLI=<broadcast_cli> -DCATALOG=<csv> -P cli_reject_test.cmake
function(expect_rejected pattern)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 20)
  if(NOT status MATCHES "^[0-9]+$")
    message(FATAL_ERROR "'${ARGN}': broadcast_cli did not exit: ${status}")
  endif()
  if(status EQUAL 0)
    message(FATAL_ERROR "'${ARGN}': broadcast_cli accepted it:\n${out}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "'${ARGN}': error output lacks '${pattern}':\n${err}")
  endif()
endfunction()

expect_rejected("too small"
  schedule --catalog ${CATALOG} --channels 2 --bandwidth 1e-10)
expect_rejected("too small"
  plan --catalog ${CATALOG} --total-bandwidth 1e-10 --max-channels 2)
expect_rejected("bandwidth 1e-308"
  schedule --catalog ${CATALOG} --channels 2 --bandwidth 1e-308)
expect_rejected("--bandwidth abc"
  schedule --catalog ${CATALOG} --channels 2 --bandwidth abc)
expect_rejected("--bandwidth 10abc"
  schedule --catalog ${CATALOG} --channels 2 --bandwidth 10abc)
expect_rejected("--channels 4294967298"
  schedule --catalog ${CATALOG} --channels 4294967298)
expect_rejected("--channels 3x"
  schedule --catalog ${CATALOG} --channels 3x)
expect_rejected("--total-bandwidth 5x"
  plan --catalog ${CATALOG} --total-bandwidth 5x)
