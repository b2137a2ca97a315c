add_executable(perfbench_driver
    ${PERFBENCH_DRIVER_DIR}/main.cpp
    ${PERFBENCH_DRIVER_DIR}/fault_rv32i.cpp
    ${PERFBENCH_DRIVER_DIR}/verify_msi.cpp
)
target_link_libraries(perfbench_driver PRIVATE koika_designs koika_rtl
                                               koika_replay koika_fault
                                               koika_harness koika_codegen
                                               koika_obs)
