/**
 * @file
 * Seeded request streams of the end-to-end benchmark: which query each
 * request carries and, for the open loop, when it is due.
 *
 * Everything here is a pure function of the workload seed, so two runs
 * with one seed offer the server the same requests in the same order
 * and at the same offsets; only the server's response to them varies.
 */

#ifndef SIRIUS_PERFBENCH_WORKLOAD_H
#define SIRIUS_PERFBENCH_WORKLOAD_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/** Independent stream of one seed: arrivals, picks, client c's picks. */
inline sirius::Rng
streamRng(uint64_t seed, uint64_t stream)
{
    return sirius::Rng(seed * 0x9E3779B97F4A7C15ULL + stream);
}

inline constexpr uint64_t kArrivalStream = 1;
inline constexpr uint64_t kOpenPickStream = 2;
inline constexpr uint64_t kClientStreamBase = 16;

/**
 * Query picks over a set of @p size queries: uniform when @p zipf_skew
 * is 0, otherwise Zipf(zipf_skew) with the set's own order as the
 * popularity rank.
 */
class PickStream
{
  public:
    PickStream(sirius::Rng rng, size_t size, double zipf_skew)
        : rng_(rng), size_(size), zipf_(size, zipf_skew),
          skewed_(zipf_skew > 0.0)
    {
    }

    size_t
    next()
    {
        return skewed_ ? zipf_.draw(rng_)
                       : static_cast<size_t>(rng_.below(size_));
    }

  private:
    sirius::Rng rng_;
    size_t size_;
    sirius::ZipfSampler zipf_;
    bool skewed_;
};

/** Closed-loop client @p client's pick stream. */
inline PickStream
clientPicks(uint64_t seed, size_t client, size_t set_size,
            double zipf_skew)
{
    return PickStream(streamRng(seed, kClientStreamBase + client),
                      set_size, zipf_skew);
}

/** One open-loop request: due offset from the start, and its query. */
struct Arrival
{
    double dueSeconds = 0.0;
    size_t query = 0;

    bool
    operator==(const Arrival &other) const
    {
        return dueSeconds == other.dueSeconds && query == other.query;
    }
};

/**
 * Poisson arrivals at @p qps over [0, @p seconds), conditioned on their
 * count in each of @p windows equal windows: every window gets its
 * share of round(qps * seconds) due times, drawn uniformly within it,
 * which is the arrival process of a Poisson stream that happened to
 * deliver exactly those counts. Fixing the counts keeps the offered
 * work equal across seeds and windows, so the spread between runs (and
 * between the windows the metrics take medians over) comes from the
 * arrival pattern and the mix, not from how many requests a seed
 * happened to offer.
 */
inline std::vector<Arrival>
openSchedule(uint64_t seed, double qps, double seconds, size_t windows,
             size_t set_size)
{
    const double total = qps * seconds;
    const double width = seconds / static_cast<double>(windows);
    sirius::Rng arrivals = streamRng(seed, kArrivalStream);
    auto upTo = [&](size_t w) {
        return std::llround(total * double(w) / double(windows));
    };
    std::vector<Arrival> schedule;
    for (size_t w = 0; w < windows; ++w) {
        for (long long i = upTo(w); i < upTo(w + 1); ++i) {
            Arrival arrival;
            arrival.dueSeconds =
                arrivals.uniform(width * double(w), width * double(w + 1));
            schedule.push_back(arrival);
        }
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Arrival &a, const Arrival &b) {
                  return a.dueSeconds < b.dueSeconds;
              });
    PickStream picks(streamRng(seed, kOpenPickStream), set_size, 0.0);
    for (Arrival &arrival : schedule)
        arrival.query = picks.next();
    return schedule;
}

} // namespace perfbench

#endif // SIRIUS_PERFBENCH_WORKLOAD_H
