#include "serve/tenant.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace heap::serve {

void
TenantRegistry::registerTenant(TenantSpec spec)
{
    HEAP_CHECK(spec.id != 0, "tenant id 0 is reserved (untenanted)");
    HEAP_CHECK(spec.weight > 0 && std::isfinite(spec.weight),
               "bad tenant weight " << spec.weight);
    std::lock_guard<std::mutex> lock(m_);
    const auto [it, inserted] =
        tenants_.emplace(spec.id, State{std::move(spec)});
    HEAP_CHECK(inserted,
               "tenant " << it->first << " already registered");
}

bool
TenantRegistry::known(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(m_);
    return tenants_.find(id) != tenants_.end();
}

size_t
TenantRegistry::count() const
{
    std::lock_guard<std::mutex> lock(m_);
    return tenants_.size();
}

std::vector<uint64_t>
TenantRegistry::tenantIds() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<uint64_t> ids;
    ids.reserve(tenants_.size());
    for (const auto& [id, st] : tenants_) {
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

const TenantRegistry::State&
TenantRegistry::at(uint64_t id) const
{
    const auto it = tenants_.find(id);
    HEAP_CHECK(it != tenants_.end(), "unknown tenant " << id);
    return it->second;
}

TenantRegistry::State&
TenantRegistry::at(uint64_t id)
{
    const auto it = tenants_.find(id);
    HEAP_CHECK(it != tenants_.end(), "unknown tenant " << id);
    return it->second;
}

const TenantSpec&
TenantRegistry::spec(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(m_);
    return at(id).spec;
}

std::optional<Admission>
TenantRegistry::tryAdmit(uint64_t id, size_t items)
{
    HEAP_CHECK(items >= 1, "request with no work items");
    std::lock_guard<std::mutex> lock(m_);
    State& s = at(id);
    if (s.spec.maxInFlight != 0 && s.inFlight >= s.spec.maxInFlight) {
        ++s.rejectedQuota;
        return std::nullopt;
    }
    if (s.inFlight == 0) {
        // WFQ catch-up: an idle tenant re-enters at the floor of the
        // busy tenants' virtual clocks, so idling never banks credit
        // it could later spend to monopolize the queue.
        double floor = std::numeric_limits<double>::infinity();
        for (const auto& [tid, st] : tenants_) {
            if (st.inFlight > 0) {
                floor = std::min(floor, st.virtualService);
            }
        }
        if (std::isfinite(floor)) {
            s.virtualService = std::max(s.virtualService, floor);
        }
    }
    Admission adm{s.virtualService};
    s.virtualService +=
        static_cast<double>(items) / s.spec.weight;
    ++s.inFlight;
    ++s.submitted;
    return adm;
}

void
TenantRegistry::cancelAdmit(uint64_t id, size_t items)
{
    std::lock_guard<std::mutex> lock(m_);
    State& s = at(id);
    HEAP_ASSERT(s.inFlight >= 1 && s.submitted >= 1,
                "cancelAdmit without a matching tryAdmit");
    s.virtualService -= static_cast<double>(items) / s.spec.weight;
    --s.inFlight;
    --s.submitted;
    ++s.rejectedCapacity;
}

void
TenantRegistry::onComplete(uint64_t id, size_t items, bool ok)
{
    std::lock_guard<std::mutex> lock(m_);
    State& s = at(id);
    HEAP_ASSERT(s.inFlight >= 1, "completion without admission");
    --s.inFlight;
    if (ok) {
        ++s.completed;
        s.servedItems += items;
    } else {
        ++s.failed;
    }
}

void
TenantRegistry::onShed(uint64_t id)
{
    std::lock_guard<std::mutex> lock(m_);
    ++at(id).rejectedShed;
}

TenantStats
TenantRegistry::statsLocked(const State& s) const
{
    TenantStats out;
    out.id = s.spec.id;
    out.name = s.spec.name;
    out.weight = s.spec.weight;
    out.submitted = s.submitted;
    out.completed = s.completed;
    out.failed = s.failed;
    out.rejectedQuota = s.rejectedQuota;
    out.rejectedCapacity = s.rejectedCapacity;
    out.rejectedShed = s.rejectedShed;
    out.inFlight = s.inFlight;
    out.servedItems = s.servedItems;
    out.virtualService = s.virtualService;
    return out;
}

TenantStats
TenantRegistry::stats(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(m_);
    return statsLocked(at(id));
}

std::vector<TenantStats>
TenantRegistry::allStats() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<TenantStats> out;
    out.reserve(tenants_.size());
    for (const auto& [id, st] : tenants_) {
        out.push_back(statsLocked(st));
    }
    std::sort(out.begin(), out.end(),
              [](const TenantStats& a, const TenantStats& b) {
                  return a.id < b.id;
              });
    return out;
}

double
TenantRegistry::fairnessRatio(uint64_t minCompleted) const
{
    std::lock_guard<std::mutex> lock(m_);
    double minShare = std::numeric_limits<double>::infinity();
    double maxShare = 0;
    size_t qualified = 0;
    for (const auto& [id, s] : tenants_) {
        if (s.completed < minCompleted) {
            continue;
        }
        const double share =
            static_cast<double>(s.servedItems) / s.spec.weight;
        minShare = std::min(minShare, share);
        maxShare = std::max(maxShare, share);
        ++qualified;
    }
    if (qualified < 2 || minShare <= 0) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    return maxShare / minShare;
}

} // namespace heap::serve
