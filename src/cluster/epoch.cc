#include "cluster/epoch.h"

#include <algorithm>

#include "sim/log.h"

namespace heracles::cluster {

uint64_t
QueryLedger::Open(int alive)
{
    HERACLES_CHECK(alive >= 0);
    slots_.push_back({alive, 0});
    return next_tag() - 1;
}

sim::Duration
QueryLedger::Reply(uint64_t tag, sim::Duration latency)
{
    HERACLES_CHECK_MSG(tag >= base_tag_ + head_ && tag < next_tag(),
                       "reply for tag " << tag << " outside the live span ["
                                        << base_tag_ + head_ << ", "
                                        << next_tag() << ")");
    Slot& s = slots_[tag - base_tag_];
    HERACLES_CHECK_MSG(s.remaining > 0,
                       "reply for completed or lost query " << tag);
    s.max_latency = std::max(s.max_latency, latency);
    return --s.remaining == 0 ? s.max_latency + hop_latency_ : -1;
}

void
QueryLedger::Retire()
{
    while (head_ < slots_.size() && slots_[head_].remaining == 0) ++head_;
    if (head_ == slots_.size()) {
        base_tag_ += head_;
        slots_.clear();
        head_ = 0;
    } else if (2 * head_ >= slots_.size()) {
        slots_.erase(slots_.begin(),
                     slots_.begin() + static_cast<std::ptrdiff_t>(head_));
        base_tag_ += head_;
        head_ = 0;
    }
}

BarrierClock
BarrierClock::Build(sim::Duration duration, sim::Duration root_window,
                    sim::Duration scheduler_period,
                    const std::vector<chaos::TimedFault>& faults)
{
    HERACLES_CHECK_MSG(duration > 0, "empty cluster run");
    HERACLES_CHECK_MSG(root_window > 0, "root window must be positive");

    BarrierClock clock;
    std::vector<sim::SimTime>& b = clock.barriers;
    for (sim::SimTime t = root_window; t <= duration; t += root_window) {
        b.push_back(t);
    }
    if (scheduler_period > 0) {
        for (sim::SimTime t = scheduler_period; t <= duration;
             t += scheduler_period) {
            b.push_back(t);
        }
    }
    for (const chaos::TimedFault& f : faults) {
        if (f.begin > 0 && f.begin <= duration) b.push_back(f.begin);
        if (f.end > 0 && f.end <= duration) b.push_back(f.end);
    }
    b.push_back(duration);
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    return clock;
}

bool
BarrierClock::IsBarrier(sim::SimTime t) const
{
    return std::binary_search(barriers.begin(), barriers.end(), t);
}

}  // namespace heracles::cluster
