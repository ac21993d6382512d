/**
 * @file
 * A tiny fixed-bucket histogram used by the statistics package for
 * occupancy distributions (queue population, registers in use, ...),
 * and the one percentile rule every latency report shares.
 */

#ifndef SMT_COMMON_HISTOGRAM_HH
#define SMT_COMMON_HISTOGRAM_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace smt
{

/** Histogram over [0, buckets); samples beyond the top land in the last. */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 64)
        : counts_(buckets, 0)
    {
        smt_assert(buckets > 0);
    }

    void
    sample(std::uint64_t value, std::uint64_t weight = 1)
    {
        const std::size_t idx =
            value < counts_.size() ? static_cast<std::size_t>(value)
                                   : counts_.size() - 1;
        counts_[idx] += weight;
        sum_ += value * weight;
        samples_ += weight;
    }

    std::uint64_t samples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean of all samples (0 when empty). */
    double
    mean() const
    {
        return samples_ == 0
                   ? 0.0
                   : static_cast<double>(sum_) / static_cast<double>(samples_);
    }

    std::uint64_t
    bucket(std::size_t idx) const
    {
        smt_assert(idx < counts_.size());
        return counts_[idx];
    }

    std::size_t buckets() const { return counts_.size(); }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        sum_ = 0;
        samples_ = 0;
    }

    /**
     * Overwrite the full state (bucket counts, raw sum, sample count).
     * Used by the sweep result cache to restore a histogram exactly:
     * replaying sample() per bucket would lose the true values of
     * samples that were clamped into the top bucket.
     */
    void
    restore(std::vector<std::uint64_t> counts, std::uint64_t sum,
            std::uint64_t samples)
    {
        smt_assert(!counts.empty());
        counts_ = std::move(counts);
        sum_ = sum;
        samples_ = samples;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t sum_ = 0;
    std::uint64_t samples_ = 0;
};

/** Nearest-rank (inclusive) percentile `p` in [0, 100] of an
 *  ascending-sorted sample; 0 when the sample is empty. */
inline double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 * sorted.size());
    std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

} // namespace smt

#endif // SMT_COMMON_HISTOGRAM_HH
