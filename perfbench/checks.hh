/**
 * @file
 * Output checks of the end-to-end benchmark, each comparing what the
 * staged engine reported against a value the benchmark computed apart
 * from it. Every check returns an empty string when it passes and a
 * one-line reason when it fires; test_checks.cc shows each one firing
 * on a deliberately wrong value.
 */

#ifndef TAMRES_PERFBENCH_CHECKS_HH
#define TAMRES_PERFBENCH_CHECKS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/staged_engine.hh"
#include "tensor/tensor.hh"

namespace perfbench {

/** printf into a std::string (check messages). */
template <typename... Args>
std::string
format(const char *fmt, Args... args)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

/** What the engine served one request at. */
struct ServedDecision
{
    int res_index = 0;  //!< index into the resolution grid
    int resolution = 0; //!< square backbone resolution in pixels
    int scans_read = 0; //!< scans decoded and served at
};

/**
 * The decision the benchmark expects: the grid index its own cold
 * preview decode + scale model picks (or the static resolution), and
 * the scan depth the workload's schedule assigns to that index.
 */
struct ExpectedDecision
{
    int res_index = 0;
    int scans = 0;
};

/** Served resolution and depth must equal the expected decision. */
inline std::string
checkDecision(const ServedDecision &got, const ExpectedDecision &want,
              const std::vector<int> &grid)
{
    if (want.res_index < 0 || want.res_index >= static_cast<int>(grid.size()))
        return format("expected grid index %d outside the grid",
                      want.res_index);
    if (got.res_index != want.res_index ||
        got.resolution != grid[static_cast<size_t>(want.res_index)])
        return format("served %d px (index %d), cold decision %d px",
                      got.resolution, got.res_index,
                      grid[static_cast<size_t>(want.res_index)]);
    if (got.scans_read != want.scans)
        return format("served %d scans, schedule says %d",
                      got.scans_read, want.scans);
    return {};
}

/**
 * The signature of the stage-1 deep-hit cache fault: the engine found a
 * cached prefix deeper than the preview, the scale model decided on
 * it, and the request was served at that depth with no tail fetch. A
 * decision that differs from the cold one is this fault only when it
 * equals @p choice_at_served, the benchmark's own choice on a decode of
 * the served depth, and the served depth is past @p preview_scans and
 * covers @p schedule_of_choice, the depth the schedule gives that
 * choice.
 */
inline bool
isDeepHitDecision(const ServedDecision &got, int choice_at_served,
                  int schedule_of_choice, int preview_scans,
                  const std::vector<int> &grid)
{
    return got.res_index >= 0 &&
           got.res_index < static_cast<int>(grid.size()) &&
           got.resolution == grid[static_cast<size_t>(got.res_index)] &&
           got.res_index == choice_at_served &&
           got.scans_read > preview_scans &&
           got.scans_read >= schedule_of_choice;
}

/**
 * Without a cache a request fetches exactly the prefix it serves:
 * its bytes_read must equal the object's bytesForScans(scans_read).
 */
inline std::string
checkRequestBytes(uint64_t bytes_read, uint64_t expected)
{
    if (bytes_read != expected)
        return format("request read %llu bytes, its prefix is %llu",
                      static_cast<unsigned long long>(bytes_read),
                      static_cast<unsigned long long>(expected));
    return {};
}

/**
 * Store bytes a request's hedges may move without being charged to it.
 * A hedge races a backup against one fetch, and the loser, when it
 * still completes, moves that fetch's range again. A request fetches
 * at most two ranges, [0, preview) and [preview, served), so each hedge
 * may add at most the larger of them.
 */
inline uint64_t
hedgeAllowance(int hedges, uint64_t preview_bytes, uint64_t served_bytes)
{
    if (hedges <= 0)
        return 0;
    const uint64_t tail =
        served_bytes > preview_bytes ? served_bytes - preview_bytes : 0;
    return static_cast<uint64_t>(hedges) * std::max(preview_bytes, tail);
}

/**
 * Two byte meters. The engine's total (which also charges hedge
 * losers) must equal the store's ReadStats delta. The per-request
 * bytes must sum to the store delta, short of at most
 * @p hedge_allowance: the sum of hedgeAllowance() over the requests.
 */
inline std::string
checkByteMeters(uint64_t per_request_sum, uint64_t engine_bytes,
                uint64_t store_bytes, uint64_t hedge_allowance)
{
    if (engine_bytes != store_bytes)
        return format("engine metered %llu bytes, store %llu",
                      static_cast<unsigned long long>(engine_bytes),
                      static_cast<unsigned long long>(store_bytes));
    if (per_request_sum > store_bytes)
        return format("requests carry %llu bytes, store moved %llu",
                      static_cast<unsigned long long>(per_request_sum),
                      static_cast<unsigned long long>(store_bytes));
    const uint64_t unattributed = store_bytes - per_request_sum;
    if (unattributed > hedge_allowance)
        return format("%llu store bytes in no request, hedges allow %llu",
                      static_cast<unsigned long long>(unattributed),
                      static_cast<unsigned long long>(hedge_allowance));
    return {};
}

/**
 * Terminal conservation once every request has been waited:
 * admitted == done + degraded + failed + expired + shed + rejected +
 * cancelled.
 */
inline std::string
checkTerminalConservation(const tamres::StagedStats &s)
{
    const uint64_t terminals = s.done + s.degraded + s.failed +
                               s.expired + s.shed_admission +
                               s.rejected + s.cancelled;
    if (s.admitted != terminals)
        return format("admitted %llu, terminals %llu",
                      static_cast<unsigned long long>(s.admitted),
                      static_cast<unsigned long long>(terminals));
    return {};
}

/** Cache conservation: insertions == entries + evictions + invalidations. */
inline std::string
checkCacheConservation(const tamres::DecodeCacheStats &c)
{
    if (c.insertions != c.entries + c.evictions + c.invalidations)
        return format("cache insertions %llu != entries %llu + "
                      "evictions %llu + invalidations %llu",
                      static_cast<unsigned long long>(c.insertions),
                      static_cast<unsigned long long>(c.entries),
                      static_cast<unsigned long long>(c.evictions),
                      static_cast<unsigned long long>(c.invalidations));
    return {};
}

/**
 * Decision spread over the served resolutions: a dynamic workload
 * must serve at least @p min_distinct grid points; a static one
 * (@p only > 0) must serve nothing but @p only.
 */
inline std::string
checkDecisionSpread(const std::vector<int> &served_resolutions,
                    int min_distinct, int only)
{
    const std::set<int> distinct(served_resolutions.begin(),
                                 served_resolutions.end());
    if (only > 0) {
        for (int r : distinct)
            if (r != only)
                return format("static workload served %d px", r);
        return {};
    }
    if (static_cast<int>(distinct.size()) < min_distinct)
        return format("served %d distinct resolutions, need %d",
                      static_cast<int>(distinct.size()), min_distinct);
    return {};
}

/** The served backbone output must be bitwise equal to the oracle's. */
inline std::string
checkBitwiseEqual(const tamres::Tensor &served,
                  const tamres::Tensor &oracle)
{
    if (served.shape() != oracle.shape())
        return format("output has %lld values, oracle %lld",
                      static_cast<long long>(served.numel()),
                      static_cast<long long>(oracle.numel()));
    for (int64_t i = 0; i < served.numel(); ++i) {
        if (std::memcmp(served.data() + i, oracle.data() + i,
                        sizeof(float)) != 0)
            return format("output value %lld differs: %.9g vs %.9g",
                          static_cast<long long>(i),
                          static_cast<double>(served.data()[i]),
                          static_cast<double>(oracle.data()[i]));
    }
    return {};
}

} // namespace perfbench

#endif // TAMRES_PERFBENCH_CHECKS_HH
