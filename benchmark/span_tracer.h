/**
 * @file
 * Outside-in span tracer of the benchmark: host wall-clock self time
 * per layer, recorded only from the benchmark's own code around calls
 * into each layer's public API.
 *
 * Spans nest. Every span boundary reads the clock once and bills the
 * interval since the previous boundary to the innermost open span, so a
 * span's self time is its duration minus its children, and the self
 * times of one request tile its wall time. Consecutive top-level spans
 * share a boundary (to()), so a request costs few clock reads. Each boundary costs host
 * time itself; the calibrated cost of one boundary (clockNs, measured
 * on empty spans) is subtracted from every interval and counted as
 * tracing overhead instead.
 *
 * Only sampled requests are timed: the replay loop opens the request
 * with beginRequest(), switches the top-level span at each call into a
 * layer with to(), switches back to kOther for its own bookkeeping, and
 * closes with endRequest(); the span wrappers forward untimed while no
 * request is open. kOther is loop code that lies in no layer.
 *
 * The stretch between two sampled requests holds only unsampled ones and
 * no clock read, so its wall time measures the mean cost of a request
 * independently of the spans. Comparing it with the sampled requests'
 * layer sum checks the trace: they differ by how far the clock reads
 * perturb the requests they time, plus sampling error.
 */
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "ssd/ssd_device.h"

namespace ssdbench {

namespace blockdev = ssdcheck::blockdev;

/** Host layers the tracer attributes self time to. */
enum Layer : uint8_t
{
    kSsd,        ///< ssd::SsdDevice::submit.
    kResilience, ///< PolicyDevice / ResilientDevice, minus the ssd beneath.
    kPredict,    ///< SsdCheck::predict + onSubmit.
    kComplete,   ///< SsdCheck::onComplete.
    kSupervisor, ///< HealthSupervisor pump + onCompletion + observeHealth.
    kObs,        ///< Registry upkeep (+ host.request span when tracing).
    kOther,      ///< The request's root span: loop code in no layer.
    kLayerCount,
};

/** SsdDevice call classes, by the VolumeCounters delta across a call. */
enum SsdClass : uint8_t
{
    kGcCall,
    kFlushCall,
    kPlainCall,
    kSsdClassCount,
};

inline int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Index of the sampled request after sampled request @p index: gaps of
 * 1..15 drawn from a fixed hash of the index, so 1 request in 8 is timed
 * and the samples do not alias with periodic device behaviour such as
 * the ~62-page flush cadence. Unsampled requests pay one compare.
 */
inline uint64_t
nextSample(uint64_t index)
{
    uint64_t z = index + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return index + 1 + (z ^ (z >> 31)) % 15;
}

/** Median over batches of the mean cost (ns) of one call of @p f. */
template <typename F>
double
calibrateNs(F &&f)
{
    constexpr int kBatches = 31;
    constexpr int kCalls = 4096;
    std::array<double, kBatches> perCall{};
    for (double &v : perCall) {
        const int64_t a = wallNs();
        for (int i = 0; i < kCalls; ++i)
            f();
        v = static_cast<double>(wallNs() - a) / kCalls;
    }
    std::nth_element(perCall.begin(), perCall.begin() + kBatches / 2,
                     perCall.end());
    return perCall[kBatches / 2];
}

class Tracer
{
  public:
    /** Measure one boundary's cost by timing back-to-back empty spans. */
    void calibrate()
    {
        clockNs_ = 0;
        begin(kOther);
        clockNs_ = calibrateNs([this] { to(kOther); });
        end();
        self_ = {};
    }

    double clockNs() const { return clockNs_; }
    bool armed() const { return depth_ > 0; }

    /** True when request @p index is one to time (see nextSample). */
    bool wants(uint64_t index) const { return index == next_; }

    void begin(Layer layer)
    {
        mark();
        stack_[depth_++] = layer;
    }

    /** Close the innermost span. @return its last interval (ns). */
    double end()
    {
        const double last = mark();
        --depth_;
        return last;
    }

    /** Close the innermost span and open @p layer in its place.
     *  @return the closed span's last interval (ns). */
    double to(Layer layer)
    {
        const double last = mark();
        stack_[depth_ - 1] = layer;
        return last;
    }

    /** Open sampled request @p index; bill the unsampled stretch since
     *  the previous sampled request, if any. */
    void beginRequest(uint64_t index)
    {
        workAtRequest_ = workSum();
        const int64_t stretchStart = last_;
        begin(kOther);
        if (!requestWork_.empty()) {
            stretchNs_ += static_cast<double>(last_ - stretchStart) - clockNs_;
            stretchRequests_ += index - lastIndex_ - 1;
        }
    }

    /** Close request @p index and pick the next one to time. */
    void endRequest(uint64_t index)
    {
        next_ = nextSample(index);
        lastIndex_ = index;
        end();
        requestWork_.push_back(workSum() - workAtRequest_);
    }

    /**
     * SsdDevice call @p f as a kSsd span, classed by the device's
     * counter deltas. @p snapNs is the calibrated cost of one counter
     * snapshot; the two taken inside the span are not ssd work. The
     * span nests in the open one, or with @p then replaces it and is
     * followed by a top-level span of layer *then.
     */
    template <typename F>
    blockdev::IoResult ssdCall(const ssdcheck::ssd::SsdDevice &dev,
                               double snapNs, F &&f,
                               const Layer *then = nullptr)
    {
        if (then != nullptr)
            to(kSsd);
        else
            begin(kSsd);
        const ssdcheck::ssd::VolumeCounters c0 = dev.totalCounters();
        const blockdev::IoResult res = f();
        const ssdcheck::ssd::VolumeCounters c1 = dev.totalCounters();
        const double self =
            (then != nullptr ? to(*then) : end()) - 2 * snapNs;
        self_[kSsd] -= 2 * snapNs;
        const SsdClass cls = c1.gcInvocations != c0.gcInvocations
                                 ? kGcCall
                             : c1.flushes != c0.flushes ? kFlushCall
                                                        : kPlainCall;
        classNs_[cls] += self;
        ++classCalls_[cls];
        return res;
    }

    double selfNs(Layer l) const { return self_[l]; }
    uint64_t sampledRequests() const { return requestWork_.size(); }
    double classNs(SsdClass c) const { return classNs_[c]; }
    uint64_t classCalls(SsdClass c) const { return classCalls_[c]; }
    /** Per sampled request: the sum of every layer's self time. */
    const std::vector<double> &requestWork() const { return requestWork_; }
    /** Mean wall time of an unsampled request (0 before two samples). */
    double unsampledNs() const
    {
        return stretchRequests_ == 0
                   ? 0.0
                   : stretchNs_ / static_cast<double>(stretchRequests_);
    }

  private:
    /** One boundary: bill the elapsed interval to the innermost span. */
    double mark()
    {
        const int64_t now = wallNs();
        double interval = 0;
        if (depth_ > 0) {
            interval = static_cast<double>(now - last_) - clockNs_;
            self_[stack_[depth_ - 1]] += interval;
        }
        last_ = now;
        return interval;
    }

    double workSum() const
    {
        double s = 0;
        for (const double v : self_)
            s += v;
        return s;
    }

    double clockNs_ = 0;
    uint64_t next_ = 0;
    std::array<Layer, 16> stack_{};
    int depth_ = 0;
    int64_t last_ = 0;
    std::array<double, kLayerCount> self_{};
    std::array<double, kSsdClassCount> classNs_{};
    std::array<uint64_t, kSsdClassCount> classCalls_{};
    double workAtRequest_ = 0;
    uint64_t lastIndex_ = 0;
    double stretchNs_ = 0;
    uint64_t stretchRequests_ = 0;
    std::vector<double> requestWork_;
};

/**
 * BlockDevice wrapper that times calls into the wrapped device while a
 * sampled request is open: as SsdDevice calls when @p ssd is given,
 * else as one span of @p layer. Forwards untimed otherwise, so a
 * wrapped stack replays exactly like a bare one.
 */
class SpanDevice final : public blockdev::BlockDevice
{
  public:
    SpanDevice(blockdev::BlockDevice &inner, Tracer &tracer, Layer layer,
               const ssdcheck::ssd::SsdDevice *ssd = nullptr,
               double snapNs = 0)
        : inner_(inner), tracer_(tracer), layer_(layer), ssd_(ssd),
          snapNs_(snapNs)
    {
    }

    blockdev::IoResult submit(const blockdev::IoRequest &req,
                              ssdcheck::sim::SimTime now) override
    {
        if (!tracer_.armed())
            return inner_.submit(req, now);
        if (ssd_ != nullptr)
            return tracer_.ssdCall(*ssd_, snapNs_,
                                   [&] { return inner_.submit(req, now); });
        tracer_.begin(layer_);
        const blockdev::IoResult res = inner_.submit(req, now);
        tracer_.end();
        return res;
    }
    uint64_t capacitySectors() const override
    {
        return inner_.capacitySectors();
    }
    void purge(ssdcheck::sim::SimTime now) override { inner_.purge(now); }
    std::string name() const override { return inner_.name(); }

  private:
    blockdev::BlockDevice &inner_;
    Tracer &tracer_;
    Layer layer_;
    const ssdcheck::ssd::SsdDevice *ssd_;
    double snapNs_;
};

} // namespace ssdbench
