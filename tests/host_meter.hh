/**
 * @file
 * Host measurements for tests: the process's CPU time, for speed gates
 * that tests running beside them cannot skew, and a count of global
 * operator new calls, for tests that show a path allocates nothing. A
 * test binary that calls heapAllocations() links host_meter.cc
 * (tests/CMakeLists.txt), which replaces the global operator new and
 * delete with counting ones.
 */

#ifndef ISIM_TESTS_HOST_METER_HH
#define ISIM_TESTS_HOST_METER_HH

#include <cstddef>
#include <ctime>

namespace isim {

/** CPU seconds this process has used so far, over all its threads. */
inline double
processCpuSeconds()
{
    timespec ts{};
    // isim-lint: allow(determinism): times the host for a speed gate; never feeds simulated state
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** Global operator new calls so far in this process, all threads. */
std::size_t heapAllocations();

} // namespace isim

#endif // ISIM_TESTS_HOST_METER_HH
