# Runs `broadcast_cli schedule` on a catalogue whose sizes overflow in
# aggregate and requires a prompt failure with a clear message, for the
# default DRP-CDS and for plain DRP. Accepted, such a catalogue makes
# DRP-CDS spin forever on NaN gains and DRP print an infinite cost with exit
# status 0.
#
#   cmake -DCLI=<broadcast_cli> -DCATALOG=<csv> -P cli_overflow_test.cmake
foreach(algorithm drp-cds drp)
  execute_process(
    COMMAND ${CLI} schedule --catalog ${CATALOG} --channels 2 --algorithm ${algorithm}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 20)
  if(NOT status MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${algorithm}: broadcast_cli did not exit: ${status}")
  endif()
  if(status EQUAL 0)
    message(FATAL_ERROR "${algorithm}: broadcast_cli accepted the catalogue:\n${out}")
  endif()
  if(NOT err MATCHES "aggregates overflow")
    message(FATAL_ERROR "${algorithm}: unexpected error output:\n${err}")
  endif()
endforeach()
