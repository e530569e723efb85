#include "core/gc_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "recovery/state_io.h"

namespace ssdcheck::core {

GcModel::GcModel(GcModelConfig cfg) : cfg_(cfg) {}

void
GcModel::onGcObserved()
{
    history_.push_back(intervalCounter_);
    if (history_.size() > cfg_.historyWindow)
        history_.pop_front();
    intervalCounter_ = 0;
    updateThreshold();
}

void
GcModel::updateThreshold()
{
    threshold_ = 0;
    if (history_.size() < cfg_.minHistory)
        return;
    std::vector<uint32_t> v(history_.begin(), history_.end());
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<size_t>(
        std::floor(cfg_.quantile * static_cast<double>(v.size() - 1)));
    threshold_ = std::max<uint32_t>(1, v[idx]);
}

void
GcModel::resetHistory()
{
    history_.clear();
    intervalCounter_ = 0;
    updateThreshold();
}

void
GcModel::saveState(recovery::StateWriter &w) const
{
    w.u32(intervalCounter_);
    w.u32(static_cast<uint32_t>(history_.size()));
    for (uint32_t h : history_)
        w.u32(h);
}

bool
GcModel::loadState(recovery::StateReader &r)
{
    intervalCounter_ = r.u32();
    const uint64_t n = r.checkCount(r.u32(), 4);
    if (r.ok() && n > cfg_.historyWindow) {
        r.fail("GC history longer than the configured window");
        return false;
    }
    history_.clear();
    for (uint64_t i = 0; i < n; ++i)
        history_.push_back(r.u32());
    updateThreshold();
    return r.ok();
}

} // namespace ssdcheck::core
