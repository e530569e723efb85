# Paper-figure and example pin: run one bench or example binary and
# compare its stdout, minus the lines that carry wall time (" wall ")
# or name the BENCH_*.json it wrote, with the committed fixture byte
# for byte. The examples take no flags and ignore the --jobs below.
#
#   cmake -DBIN=<binary> -DFIXTURE=<fixture.txt> -P figure_pin.cmake
#
# To re-record a fixture after a change that is meant to move a figure
# or an example's output:
#   ./build/bench/<name> --jobs 4 | grep -v -e ' wall ' -e '^wrote BENCH_' \
#       > tests/fixtures/figures/<name>.txt
#   ./build/examples/<name> > tests/fixtures/examples/<name>.txt
# and give the reason for the new numbers in CHANGES.md.

execute_process(
    COMMAND ${BIN} --jobs 2
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE errors
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}\n${errors}")
endif()

# Each match takes a line's leading newline and text; its own newline
# then ends the line before it.
string(REGEX REPLACE "\n[^\n]* wall [^\n]*" "" actual "${actual}")
string(REGEX REPLACE "\nwrote BENCH_[^\n]*" "" actual "${actual}")

file(READ ${FIXTURE} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${FIXTURE} NAME)
    set(got ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
    file(WRITE ${got} "${actual}")
    execute_process(COMMAND diff -u ${FIXTURE} ${got})
    message(FATAL_ERROR "output differs from ${FIXTURE}; got ${got}")
endif()
