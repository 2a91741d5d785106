# Hooked into the repository's project() call by perfbench/run.py
# (CMAKE_PROJECT_vmtherm_INCLUDE): adds the benchmark binary's targets to a
# configure of the repository root.
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" perfbench)
