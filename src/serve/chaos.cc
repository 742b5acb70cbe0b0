#include "serve/chaos.h"

#include <algorithm>

#include "common/check.h"

namespace heap::serve {

namespace {

/** splitmix64 finalizer — the same fixed mix the cluster's router
 *  uses, so scripted schedules are platform-independent. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

ChaosSpec
ChaosSpec::scripted(uint64_t seed, size_t pods, uint64_t horizon,
                    uint64_t failBursts)
{
    HEAP_CHECK(pods >= 1, "chaos schedule needs at least one pod");
    HEAP_CHECK(horizon >= 8,
               "chaos horizon too short: " << horizon);
    ChaosSpec spec;
    const size_t crashPod = static_cast<size_t>(mix64(seed) % pods);
    // Crash one pod across the middle third of the run.
    spec.events.push_back({ChaosEvent::Kind::Crash, crashPod,
                           horizon / 3, 0});
    spec.events.push_back({ChaosEvent::Kind::Recover, crashPod,
                           2 * horizon / 3, 0});
    if (pods >= 2) {
        // Wedge a different pod over an earlier window.
        const size_t wedgePod = (crashPod + 1) % pods;
        spec.events.push_back({ChaosEvent::Kind::Wedge, wedgePod,
                               horizon / 5, 0});
        spec.events.push_back({ChaosEvent::Kind::Unwedge, wedgePod,
                               horizon / 2, 0});
    }
    for (uint64_t b = 0; b < failBursts; ++b) {
        const uint64_t h = mix64(seed ^ (b + 1));
        const size_t pod = static_cast<size_t>(h % pods);
        const uint64_t at = 1 + (h >> 8) % horizon;
        spec.events.push_back(
            {ChaosEvent::Kind::FailRequests, pod, at, 1 + (h >> 40) % 2});
    }
    return spec;
}

ChaosEngine::ChaosEngine(ChaosSpec spec)
    : events_(std::move(spec.events))
{
    std::stable_sort(events_.begin(), events_.end(),
                     [](const ChaosEvent& a, const ChaosEvent& b) {
                         return a.atSubmit < b.atSubmit;
                     });
}

void
ChaosEngine::advance(uint64_t submitIdx, std::span<const PodTable> tables)
{
    std::lock_guard<std::mutex> lock(m_);
    while (cursor_ < events_.size()
           && events_[cursor_].atSubmit <= submitIdx) {
        const ChaosEvent& e = events_[cursor_++];
        const size_t pods = tables.empty() ? 0 : tables[0].size();
        HEAP_CHECK(e.pod < pods,
                   "chaos event targets pod " << e.pod << " of " << pods);
        const auto each = [&](auto&& apply) {
            for (const PodTable& table : tables) {
                if (e.pod < table.size()) {
                    apply(*table[e.pod]);
                }
            }
        };
        switch (e.kind) {
        case ChaosEvent::Kind::FailRequests:
            each([&](Pod& p) { p.injectFailures(e.count); });
            st_.injectedFailures += e.count;
            break;
        case ChaosEvent::Kind::Wedge:
            each([](Pod& p) { p.pause(); });
            ++st_.wedges;
            break;
        case ChaosEvent::Kind::Unwedge:
            each([](Pod& p) { p.resume(); });
            ++st_.unwedges;
            break;
        case ChaosEvent::Kind::Crash:
            each([](Pod& p) { p.crash(); });
            ++st_.crashes;
            break;
        case ChaosEvent::Kind::Recover:
            each([](Pod& p) { p.recover(); });
            ++st_.recoveries;
            break;
        }
        ++st_.eventsApplied;
    }
}

bool
ChaosEngine::done() const
{
    std::lock_guard<std::mutex> lock(m_);
    return cursor_ == events_.size();
}

ChaosStats
ChaosEngine::stats() const
{
    std::lock_guard<std::mutex> lock(m_);
    return st_;
}

} // namespace heap::serve
